// Test fixture for the simclock analyzer's scope: this package does
// not import the simulator, so wall-clock timers are allowed.
package simtimernosim

import "time"

func pace() {
	<-time.After(time.Millisecond)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	_ = time.AfterFunc(time.Second, func() {})
}
