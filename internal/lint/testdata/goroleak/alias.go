package goroleakfix

import coro "iter"

// aliased: the census resolves the call, not the name it is imported
// under.
func aliased(seq coro.Seq[int]) {
	next, stop := coro.Pull(seq) // want `iter.Pull with no stated lifetime`
	defer stop()
	next()
}
