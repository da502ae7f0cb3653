// Test fixture for the simclock analyzer's sleep rule: this package
// imports the simulator, so wall-clock sleeps are forbidden.
package simsleep

import (
	"time"

	"piql/internal/sim"
)

func worker(p *sim.Proc) {
	p.Sleep(5 * time.Millisecond) // virtual time: fine
	time.Sleep(time.Millisecond)  // want `time.Sleep in simulation code`
}

func helper() {
	time.Sleep(10 * time.Millisecond) // want `time.Sleep in simulation code`
}

func shadowed() {
	type fake struct{}
	time := struct{ f fake }{}
	_ = time
}

//lint:allow simclock — harness pacing documented at the site
func suppressed() {
	time.Sleep(time.Millisecond)
}
