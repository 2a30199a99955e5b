// Package gamma is an owner-package fixture: its import path ends in
// internal/gamma, so it may start goroutines.
package gamma

// start launches a pool worker.
func start(loop func()) {
	go loop()
}
