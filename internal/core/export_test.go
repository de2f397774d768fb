package core

// CheckQueueLookups compares every outgoing-queue index lookup, on every
// controller, with the linear reference until the returned stop is
// called. stop reports how many lookups ran, how many collapsed a new
// message onto a queued one, and each lookup where the index and the
// reference picked different entries.
func CheckQueueLookups() (stop func() (lookups, collapses int, mismatches []string)) {
	q := &queueLookupCheck{}
	queueLookupHook = q.observe
	return func() (int, int, []string) {
		queueLookupHook = nil
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.lookups, q.collapses, q.mismatches
	}
}
