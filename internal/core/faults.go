package core

// Faults are fault-injection and checking hooks for tests and the
// simulator. Most re-open a hazard that a protocol defense closes, so a
// test can prove the defense is load-bearing (and that the harness
// rediscovers the historical bug); StrictIndexes adds a check instead. They
// are deliberately not part of Config and not re-exported by the aire
// facade: nothing a deployment configures can switch a defense off. A
// defense with no hook here — the one-entry WAL commit of each Svc.Mu
// critical section — is shown load-bearing by its crash-point sweeps
// failing on a mutant, not by a switch kept in the shipped code.
type Faults struct {
	// DisableDedup turns off the peer-side exactly-once inbox
	// (internal/deliver): incoming repair deliveries are handled
	// at-least-once, as the original protocol did, demonstrating the
	// stale-redelivery and duplicate-create hazards the inbox closes.
	DisableDedup bool
	// UngatedReconcile reconciles delivery outcomes without the
	// per-message generation gate, reintroducing the pre-PR-1 race where a
	// message superseded while a delivery of its old content was in flight
	// is reconciled as if the old content were still the queued one — the
	// superseding repair is silently dropped.
	UngatedReconcile bool
	// SuppressReoffer stops the sender stamping wire.HdrReoffer on
	// anti-entropy recovery attempts (gap NACK or backoff horizon), so a
	// wholly-lost delivery is only ever retried the ordinary way — the
	// stall the re-offer path exists to break.
	SuppressReoffer bool
	// NoAdmission claims background pump passes without admission control
	// (Admission's budgets), so a test can show a repair storm starving
	// the mirror plane — the hazard admission exists to prevent.
	NoAdmission bool
	// StrictIndexes verifies vdb/repairlog secondary-index coherence at
	// the start of every repair wave: a corrupted or stale index fails the
	// repair loudly instead of silently walking the wrong slice. Pure reads
	// under Svc.Mu — no yields, no IDs, no rng — so scheduler digests are
	// unchanged either way. The simulation harness turns it on.
	StrictIndexes bool
}

// InjectFaults installs fault hooks on the controller. Call it before the
// controller handles traffic or is recovered from durable state (WAL replay
// consults the hooks too).
func (c *Controller) InjectFaults(f Faults) { c.faults = f }
