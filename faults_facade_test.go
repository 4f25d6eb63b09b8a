package tapejoin

import (
	"strings"
	"testing"
)

func TestConfigFaultsRecoverAndReport(t *testing.T) {
	clean := func() *Result {
		sys := quickSystem(t, 1, 4)
		r, s := makeRelations(t, sys)
		res, err := sys.Join(CTTGH, r, s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	sys, err := NewSystem(Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		// R is 2 MB = 32 blocks, S is 8 MB = 128 blocks, both at the
		// start of their cartridges.
		Faults: "transient=R:5:2,corrupt=S:40:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	r, s := makeRelations(t, sys)
	want := ExpectedMatches(r, s)
	res, err := sys.Join(CTTGH, r, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matches != want {
		t.Fatalf("matches = %d, want %d", res.Stats.Matches, want)
	}
	if res.Stats.Faults < 3 {
		t.Fatalf("Faults = %d, want >= 3", res.Stats.Faults)
	}
	if res.Stats.Retries < 3 {
		t.Fatalf("Retries = %d, want >= 3", res.Stats.Retries)
	}
	if res.Stats.RecoveryTime <= 0 {
		t.Fatal("no recovery time charged")
	}
	if res.Stats.Response <= clean.Stats.Response {
		t.Fatalf("faulted response %v not above clean %v",
			res.Stats.Response, clean.Stats.Response)
	}

	// Each Join parses a fresh schedule, so a second join on the same
	// system hits the same faults again (runs stay reproducible).
	r2, s2 := makeRelations(t, sys)
	res2, err := sys.Join(CTTGH, r2, s2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Faults != res.Stats.Faults || res2.Stats.Retries != res.Stats.Retries {
		t.Fatalf("second join saw different faults: %d/%d vs %d/%d",
			res2.Stats.Faults, res2.Stats.Retries, res.Stats.Faults, res.Stats.Retries)
	}
}

func TestConfigFaultsParseErrorSurfaces(t *testing.T) {
	sys, err := NewSystem(Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults: "bogus=1",
	})
	if err != nil {
		t.Fatal(err) // spec errors surface at Join, when parsing happens
	}
	r, s := makeRelations(t, sys)
	if _, err := sys.Join(DTNB, r, s); err == nil ||
		!strings.Contains(err.Error(), "unknown directive") {
		t.Fatalf("err = %v, want fault-spec parse error", err)
	}
}

func TestConfigDisableRecoveryMakesFaultsFatal(t *testing.T) {
	sys, err := NewSystem(Config{
		MemoryMB: 1, DiskMB: 4, Profile: IdealTape,
		Faults:          "transient=R:5:1",
		DisableRecovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, s := makeRelations(t, sys)
	if _, err := sys.Join(DTNB, r, s); err == nil {
		t.Fatal("transient fault with recovery disabled should fail the join")
	}
}

// TestRunQueryHonorsFaultConfig pins that RunQuery runs under the same
// run context as Join: Config.Faults reaches its devices (a stalled,
// retried query takes longer than a clean one) and DisableRecovery
// makes the first fault fatal.
func TestRunQueryHonorsFaultConfig(t *testing.T) {
	query := func(faults string, noRecover bool) (*QueryResult, error) {
		sys, err := NewSystem(Config{
			MemoryMB: 4, DiskMB: 32,
			Faults: faults, DisableRecovery: noRecover,
		})
		if err != nil {
			t.Fatal(err)
		}
		accounts, events := buildTypedTables(t, sys)
		return sys.RunQuery(QuerySpec{R: accounts, S: events, Method: CDTGH})
	}
	clean, err := query("", false)
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := query("stall=disk:5s:3,transient=S:3:1", false)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Count != clean.Count {
		t.Fatalf("faulted query count %d, clean %d", faulted.Count, clean.Count)
	}
	if faulted.Response <= clean.Response {
		t.Fatalf("faulted response %v not above clean %v: fault spec never reached the devices",
			faulted.Response, clean.Response)
	}
	if _, err := query("transient=S:3:1", true); err == nil {
		t.Fatal("transient fault with recovery disabled should fail the query")
	}
}
