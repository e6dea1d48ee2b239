package main

import (
	"flag"
	"strings"
	"testing"
)

// TestPolicyDefaultsToBrokersChoice: -policy must default to empty. The
// job queue routes only policy-less submissions to its reserving policy
// (jobqueue's TestReserveRoutesOnlyPolicylessSubmissions), so a client
// that names net-load-aware by default has every -submit job placed by
// the bare heuristic, without the reservation that closes the monitoring
// lag between back-to-back launches.
func TestPolicyDefaultsToBrokersChoice(t *testing.T) {
	if def := flag.Lookup("policy").DefValue; def != "" {
		t.Fatalf("-policy defaults to %q, want empty (the broker's default)", def)
	}
	if usage := flag.Lookup("submit").Usage; !strings.Contains(usage, "stencil2d") {
		t.Fatalf("-submit help omits stencil2d: %q", usage)
	}
}
