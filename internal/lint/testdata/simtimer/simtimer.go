// Test fixture for the simclock analyzer's timer rule: this package
// imports the simulator, so wall-clock timer constructors are forbidden.
package simtimer

import (
	"time"

	"piql/internal/sim"
)

func waiter(p *sim.Proc) {
	p.Sleep(5 * time.Millisecond)  // virtual time: fine
	<-time.After(time.Millisecond) // want `time.After in simulation code`
}

func ticker() {
	t := time.NewTicker(time.Second) // want `time.NewTicker in simulation code`
	defer t.Stop()
	tm := time.NewTimer(time.Second) // want `time.NewTimer in simulation code`
	_ = tm
	_ = time.Tick(time.Second)                 // want `time.Tick in simulation code`
	_ = time.AfterFunc(time.Second, func() {}) // want `time.AfterFunc in simulation code`
}

func reading() {
	_ = time.Now()             // reading the clock is fine
	_ = time.Since(time.Now()) // so is measuring with it
}

//lint:allow simclock — harness pacing documented at the site
func suppressed() {
	<-time.After(time.Millisecond)
}
