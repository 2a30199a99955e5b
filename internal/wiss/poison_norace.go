//go:build !race

package wiss

import "gammajoin/internal/tuple"

// poisonPage is a no-op outside race-detector builds (see poison_race.go).
func poisonPage([]tuple.Tuple) {}
