package core

// StoredTracesForTest returns how many traces the store holds that started
// at the input stage and how many resumed at another trace's resume point,
// for the external test package (the shared benchmark builders live in
// internal/testutil, which imports core, so store tests must be external).
func StoredTracesForTest(s *TraceStore) (simulated, resumed int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, traces := range s.traces {
		for _, tr := range traces {
			if tr.resumed {
				resumed++
			} else {
				simulated++
			}
		}
	}
	return simulated, resumed
}
