package analysis

// All returns the agentlint suite in its fixed reporting order. The order
// is part of the tool's contract: diagnostics are grouped by analyzer in
// this sequence, and the docs test cross-checks these names against the
// DESIGN.md "Static analysis" table.
func All() []*Analyzer {
	return []*Analyzer{
		Lockorder,
		Determinism,
		Buspublish,
		Wiretag,
		Errflow,
	}
}
