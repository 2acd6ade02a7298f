package locks

// ResetLockIDs restarts lock ID allocation at 0, so that a test outside
// the package builds locks whose IDs fit a task's held mask however many
// locks the tests before it built.
func ResetLockIDs() { lockIDs.Store(0) }
