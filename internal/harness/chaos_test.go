package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestChaosOnlineOperations gates the online paths: writers hammer the
// engine — and a conditional-writer fleet races TestAndSet on shared
// keys — while an index backfills and the cluster runs repeated chunked
// rebalances. RunChaos returns an error on any failed read, lost key,
// missing index entry, un-GC-able dangling entry, or any conditional
// outcome the serial model cannot explain (double-accepted or lost
// swaps).
func TestChaosOnlineOperations(t *testing.T) {
	t.Parallel()
	cfg := DefaultChaosConfig()
	if testing.Short() {
		cfg = quickChaosConfig()
	}
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted == 0 || res.Deleted == 0 || res.Reads == 0 {
		t.Fatalf("chaos exercised nothing: %+v", res)
	}
	if res.CASAccepted == 0 {
		t.Fatalf("conditional-writer fleet accepted nothing: %+v", res)
	}
	if res.Rebalances != cfg.Rebalances {
		t.Fatalf("completed %d rebalances, want %d", res.Rebalances, cfg.Rebalances)
	}
	if res.Epoch != int64(2*(cfg.Rebalances+1)) {
		t.Fatalf("final epoch %d, want %d", res.Epoch, 2*(cfg.Rebalances+1))
	}
	if res.Records == 0 || res.Entries != res.Records {
		t.Fatalf("audit mismatch: %d records, %d entries", res.Records, res.Entries)
	}
	res.Print(io.Discard)
}

// quickChaosConfig is the smallest storm that still exercises every
// path.
func quickChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Writers = 4
	// Must exceed the writer fleet's 119-id cycle: the delete branch
	// only fires on a row a *previous* iteration inserted at the same
	// id, which first happens once i wraps past 119.
	cfg.OpsPerWriter = 150
	cfg.Rebalances = 4
	cfg.CASWriters = 3
	cfg.CASOpsPerWriter = 150
	return cfg
}

// faultChaosConfig sizes the run so fault injection lands
// mid-traffic: the fleet has several times the storm's fault windows'
// worth of operations to give.
func faultChaosConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Writers = 6
	cfg.OpsPerWriter = 500
	cfg.Rebalances = 8
	cfg.CASWriters = 4
	cfg.CASOpsPerWriter = 250
	return cfg
}

// chaosSeeds are the seeds every survival test passes on. A storm is a
// function of its seed, so each is one fixed interleaving.
var chaosSeeds = []int64{1, 2, 3}

// TestChaosStormsRepeatFromOneSeed: a storm runs on the virtual clock,
// so two runs of one seed — faults included — end in the same result,
// counter for counter, and another seed changes at least one counter.
// Every run's result is pinned in testdata/chaos.golden, so a change to
// the storm, the store or the engine that moves a counter is a reviewed
// diff:
//
//	go test ./internal/harness -run TestChaosStormsRepeatFromOneSeed -update
func TestChaosStormsRepeatFromOneSeed(t *testing.T) {
	t.Parallel()
	storms := []struct {
		name string
		f    Fault
	}{{"none", NoFault}, {"kill", KillRestart}, {"partition", Partition}}
	runs := make([][3]*ChaosResult, len(storms))
	for i, sc := range storms {
		t.Run(sc.name, func(t *testing.T) {
			cfg := quickChaosConfig()
			cfg.Fault = sc.f
			for j := range runs[i] {
				if j == 2 {
					cfg.Seed++
				}
				res, err := RunChaos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs[i][j] = res
			}
			if !reflect.DeepEqual(runs[i][0], runs[i][1]) {
				t.Fatalf("two storms from one seed differ:\n%+v\n%+v", runs[i][0], runs[i][1])
			}
			if reflect.DeepEqual(runs[i][0], runs[i][2]) {
				t.Fatalf("seeds %d and %d gave the same storm: the seed is not reaching it\n%+v", cfg.Seed-1, cfg.Seed, runs[i][0])
			}
		})
	}
	if t.Failed() {
		return
	}
	var got bytes.Buffer
	for i, sc := range storms {
		seed := quickChaosConfig().Seed
		fmt.Fprintf(&got, "%s seed %d: %+v\n", sc.name, seed, *runs[i][0])
		fmt.Fprintf(&got, "%s seed %d: %+v\n", sc.name, seed+1, *runs[i][2])
	}
	const path = "testdata/chaos.golden"
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("storms differ from %s (regenerate with -update and review the diff)\n--- got\n%s\n--- want\n%s", path, got.Bytes(), want)
	}
}

// TestChaosWedgeFailsAtTheTimeLimit: a storm still running at its
// virtual-time limit fails, naming the limit and the schedule's last
// step, rather than hanging.
func TestChaosWedgeFailsAtTheTimeLimit(t *testing.T) {
	t.Parallel()
	cfg := quickChaosConfig()
	cfg.Fault = KillRestart
	_, err := runChaos(cfg, time.Second)
	if err == nil {
		t.Fatal("a storm cut off at 1s of virtual time passed")
	}
	for _, want := range []string{"unfinished at virtual time 1s", "last step: insert outage rows"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not say %q", err, want)
		}
	}
}

// TestChaosSurvivesKillRestartMidRebalance crashes a node inside a
// mid-storm rebalance and restarts it two rebalances later, while the
// writer fleet, the CAS fleet, and an index backfill hammer the cluster.
// The lease is pinned long (60s), so ownership never moves off the dead
// node: recovery rides entirely on read failover during the outage and
// catch-up replay at restart. Zero acked writes may be lost
// (read-your-writes on every op), the CAS serial model must explain
// every accepted swap, and all replicas must converge byte-for-byte
// after recovery. That both mechanisms are load-bearing is the mutant
// ledger's business (cmd/piql-vet/testdata/mutants.ledger): this test
// fails with the failover taken out of pickReplica (failover-off) and
// with rejoin's catch-up drain a no-op (replay-off).
func TestChaosSurvivesKillRestartMidRebalance(t *testing.T) {
	t.Parallel()
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := faultChaosConfig()
			cfg.Seed = seed
			cfg.Fault = KillRestart
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kills != 1 {
				t.Fatalf("kills = %d, want 1", res.Kills)
			}
			if res.CatchUpsQueued == 0 {
				t.Fatal("no writes were queued for the dead node — the outage saw no traffic")
			}
			if res.CatchUpsReplayed == 0 {
				t.Fatal("no catch-ups replayed at restart — recovery was never exercised")
			}
			res.Print(io.Discard)
		})
	}

}

// TestChaosSurvivesPartitionedReplica partitions a node away mid-storm
// with a short (40ms) lease and paces the storm past the expiry, so a
// rebalance reclaims the victim's ranges while it is unreachable; the
// heal then rejoins a node whose queued catch-ups partly target ranges
// it no longer owns. Same integrity bar as the kill test: no lost
// acked writes, a serially-consistent CAS history, byte-identical
// replicas after heal. It fails with the failover taken out of
// pickReplica (the mutant ledger's failover-off-partition).
func TestChaosSurvivesPartitionedReplica(t *testing.T) {
	t.Parallel()
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := faultChaosConfig()
			cfg.Seed = seed
			cfg.Fault = Partition
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Partitions != 1 {
				t.Fatalf("partitions = %d, want 1", res.Partitions)
			}
			if res.CatchUpsQueued == 0 {
				t.Fatal("no writes were queued for the partitioned node — the window saw no traffic")
			}
			res.Print(io.Discard)
		})
	}

}
