// Test fixture for the simclock analyzer's scope: this package does
// not import the simulator, so wall-clock sleeps are allowed.
package simsleepnosim

import "time"

func retryBackoff() {
	time.Sleep(50 * time.Millisecond)
}
