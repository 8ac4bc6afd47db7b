package server

import "context"

// SetPreQuery installs the pre-query hook — a seam for tests that must hold
// requests in flight deterministically (admission saturation, deadline
// expiry, graceful drain). Only compiled into test binaries.
func (s *Server) SetPreQuery(fn func(ctx context.Context)) { s.preQuery = fn }
