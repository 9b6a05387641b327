package core

import "thriftylp/internal/atomicx"

// Stop is a cooperative cancellation flag shared between a run's master
// goroutine and its workers. The caller (cc.RunContext) arms it from a
// context; the kernels poll it at iteration boundaries (driver loops) and at
// partition boundaries (inside parallel sweeps, as an explicit nil-safe
// parameter — deliberately outside the instrumentation seam, see instr.go),
// so a cancelled run returns within one iteration boundary without any
// per-edge cost on the fast path.
//
// Stop is write-once: Request is idempotent and there is no reset. A nil
// *Stop is valid and never reports a request, so kernels can poll
// unconditionally.
type Stop struct {
	f uint32
}

// Request asks the run to stop at its next cancellation point.
func (s *Stop) Request() { atomicx.StoreUint32(&s.f, 1) }

// Requested reports whether Request has been called. Safe on a nil receiver.
func (s *Stop) Requested() bool { return s != nil && atomicx.LoadUint32(&s.f) != 0 }

// Phase names for Result.Phase diagnostics of the non-LP kernels. The LP
// kernels reuse the counters.IterKind strings ("initial-push", "pull",
// "push", "pull-frontier").
const (
	PhaseHook     = "hook"      // SV hooking pass
	PhaseShortcut = "shortcut"  // SV pointer-jumping pass
	PhaseSample   = "sample"    // Afforest/ConnectIt sampling rounds
	PhaseFinish   = "finish"    // Afforest/ConnectIt finish pass
	PhaseBFS      = "bfs"       // BFS-CC / ConnectIt-BFS level loop
	PhaseEdgePass = "edge-pass" // Jayanti-Tarjan single edge pass
)

// cancelPoint is the driver-loop cancellation check: it records the phase
// the run was in and reports whether the kernel should abandon the loop.
// Kernels call it at iteration boundaries only, never per edge.
func (c Config) cancelPoint(res *Result, phase string) bool {
	if !c.Stop.Requested() {
		return false
	}
	res.Canceled = true
	res.Phase = phase
	return true
}
