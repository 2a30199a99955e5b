// Command tool is a main-package fixture: a go statement is allowed in any
// main package, but the other confined constructs are not.
package main

import "time"

func main() {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
	_ = time.Now() // want `time.Now is confined to internal/walltime`
}
