// Test fixture for the goroleak census: every go statement is a
// finding unless a //lint:allow goroleak directive — on its line, on
// the line above, or in the enclosing function's doc comment — names
// what bounds the goroutine's lifetime. What the goroutine does is not
// the census's business: a spawn that plainly terminates is reported
// like one that plainly leaks. An iter.Pull or iter.Pull2 call starts
// a coroutine on a goroutine of its own, so it is a spawn too; a
// function of another package named Pull is not.
package goroleakfix

import (
	"iter"
	"sync"
)

// leak parks forever on a channel nobody sends on.
func leak() {
	idle := make(chan struct{})
	go func() { <-idle }() // want `go statement with no stated lifetime`
}

// terminating is reported too: the census asks for the argument, not
// a proof.
func terminating() {
	go busyStep() // want `go statement with no stated lifetime`
}

// dynamic spawns a function value.
func dynamic(fn func()) {
	go fn() // want `go statement with no stated lifetime`
}

// nested: a go statement inside a spawned literal is a spawn of its
// own and needs its own argument.
func nested(wg *sync.WaitGroup) {
	wg.Add(1)
	//lint:allow goroleak — fixture: joined by the caller's wg.Wait
	go func() {
		defer wg.Done()
		go busyStep() // want `go statement with no stated lifetime`
	}()
}

// joined carries its argument on the line above.
func joined(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		//lint:allow goroleak — fixture: wg-joined worker with a bounded body
		go func() {
			defer wg.Done()
			busyStep()
		}()
	}
	wg.Wait()
}

// sameLine carries it on the spawn's own line.
func sameLine(done chan struct{}) {
	go func() { <-done }() //lint:allow goroleak — fixture: ends when the caller closes done
}

// docAllowed carries it in the doc comment, covering the whole body.
//
//lint:allow goroleak — fixture: the one worker this function starts is joined below
func docAllowed() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}

// stale: the spawn this directive excused is gone.
func stale() {
	//lint:allow goroleak — fixture: excused a spawn since deleted // want `suppresses no diagnostic`
	busyStep()
}

// pulled never calls stop, so the coroutine outlives the function
// whenever the sequence has more to give.
func pulled(seq iter.Seq[int]) int {
	next, _ := iter.Pull(seq) // want `iter.Pull with no stated lifetime`
	v, _ := next()
	return v
}

// pulled2 is the two-value form.
func pulled2(seq iter.Seq2[int, int]) {
	next, stop := iter.Pull2(seq) // want `iter.Pull2 with no stated lifetime`
	defer stop()
	next()
}

// pulledAllowed carries its argument: the deferred stop ends it.
func pulledAllowed(seq iter.Seq[int]) int {
	//lint:allow goroleak — fixture: the deferred stop ends the coroutine
	next, stop := iter.Pull(seq)
	defer stop()
	v, _ := next()
	return v
}

// Pull is no spawn: only the iter package's Pull starts a coroutine.
func Pull(seq iter.Seq[int]) {}

func notIter(seq iter.Seq[int]) { Pull(seq) }

func busyStep() {}
