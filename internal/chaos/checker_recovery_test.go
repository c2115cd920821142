package chaos_test

import (
	"strings"
	"testing"

	"strom/internal/chaos"
	"strom/internal/packet"
	"strom/internal/roce"
	"strom/internal/sim"
)

// Unit tests for the checker's recovery invariants (invariant 8 and the
// RESET expectation clears), driving the Observer interface directly.

func newChecker() *chaos.Checker {
	return chaos.NewChecker("T", sim.NewEngine(1), roce.Config10G())
}

func assertViolation(t *testing.T, c *chaos.Checker, substr string) {
	t.Helper()
	v := c.Violations()
	if len(v) == 0 {
		t.Fatalf("no violation recorded, want one containing %q", substr)
	}
	if !strings.Contains(v[0], substr) {
		t.Fatalf("violation %q does not contain %q", v[0], substr)
	}
}

// TestCheckerErrorStateFreshPSNViolates: invariant 8 — an ERROR-state QP
// must never emit fresh PSNs. Retransmissions of frames sent before the
// transition are legitimate (they may already be queued in the TX path).
func TestCheckerErrorStateFreshPSNViolates(t *testing.T) {
	c := newChecker()
	c.TxRequest(1, 0, 1, packet.OpWriteOnly, false)
	c.QPStateChange(1, roce.QPStateError, roce.ErrRetryExceeded)
	if c.TxRequest(1, 0, 1, packet.OpWriteOnly, true); len(c.Violations()) != 0 {
		t.Fatalf("retransmit out of ERROR flagged: %v", c.Violations())
	}
	c.TxRequest(1, 1, 1, packet.OpWriteOnly, false)
	assertViolation(t, c, "ERROR-state QP sent fresh PSN")
}

// TestCheckerResetClearsExpectations: after RESET the QP legitimately
// restarts at PSN zero on both sides and duplicate-READ payload pins are
// void (the responder's memory may have changed across the epoch).
func TestCheckerResetClearsExpectations(t *testing.T) {
	c := newChecker()
	// Build up requester, responder and READ-payload expectations.
	c.TxRequest(1, 0, 4, packet.OpWriteFirst, false)
	c.RespExec(1, 0, 4, packet.OpWriteFirst, false)
	c.RespReadData(1, 2, 0xDEAD, 1024)
	c.QPStateChange(1, roce.QPStateError, roce.ErrRetryExceeded)
	c.QPStateChange(1, roce.QPStateReset, nil)
	c.QPStateChange(1, roce.QPStateRTS, nil)
	// Fresh epoch: PSN 0 again, and the same READ PSN serving different
	// bytes. None of it may be flagged.
	c.TxRequest(1, 0, 1, packet.OpWriteOnly, false)
	c.RespExec(1, 0, 1, packet.OpWriteOnly, false)
	c.RespReadData(1, 2, 0xBEEF, 512)
	if len(c.Violations()) != 0 {
		t.Fatalf("post-reset activity flagged: %v", c.Violations())
	}
}

// TestCheckerResetScopedToQP: resetting QP 1 must not void QP 2's
// expectations — a PSN gap there is still a violation.
func TestCheckerResetScopedToQP(t *testing.T) {
	c := newChecker()
	c.TxRequest(2, 0, 1, packet.OpWriteOnly, false)
	c.QPStateChange(1, roce.QPStateReset, nil)
	c.TxRequest(2, 5, 1, packet.OpWriteOnly, false)
	assertViolation(t, c, "PSN gap")
}

// TestCheckerErrorDropsResendExpectation: a timeout normally demands a
// retransmission before the next expiry, but moving to ERROR cancels the
// timer — Finish must not flag the resend that will never come.
func TestCheckerErrorDropsResendExpectation(t *testing.T) {
	c := newChecker()
	c.TxRequest(1, 0, 1, packet.OpWriteOnly, false)
	c.Timeout(1, 1, 1)
	c.QPStateChange(1, roce.QPStateError, roce.ErrRetryExceeded)
	if v := c.Finish(); len(v) != 0 {
		t.Fatalf("ERROR transition left resend expectation armed: %v", v)
	}
}

// TestCheckerExactlyOnceAcrossReset: the op ledger spans QP resets — a
// verb flushed by the reset still counts as its one completion, and a
// second completion for the same op is a violation.
func TestCheckerExactlyOnceAcrossReset(t *testing.T) {
	c := newChecker()
	c.PostedOp(1, 1, "WRITE")
	c.QPStateChange(1, roce.QPStateReset, nil)
	c.CompletedOp(1, 1, roce.ErrQPError)
	if len(c.Violations()) != 0 {
		t.Fatalf("flush completion flagged: %v", c.Violations())
	}
	c.CompletedOp(1, 1, nil)
	assertViolation(t, c, "unknown or already-completed")
}
