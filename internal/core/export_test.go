package core

// StoredTracesForTest returns how many traces the store holds, for the
// external test package (the shared benchmark builders live in
// internal/testutil, which imports core, so store tests must be external).
func StoredTracesForTest(s *TraceStore) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, traces := range s.traces {
		n += len(traces)
	}
	return n
}
