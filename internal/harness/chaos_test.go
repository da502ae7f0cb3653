package harness

import (
	"fmt"
	"io"
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
func TestChaosStormsRepeatFromOneSeed(t *testing.T) {
	t.Parallel()
	for _, sc := range []struct {
		name string
		f    *FaultSchedule
	}{
		{"none", nil},
		{"kill", &FaultSchedule{KillRestart: true, LeaseMs: 60_000}},
		{"partition", &FaultSchedule{Partition: true, LeaseMs: 40}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cfg := quickChaosConfig()
			cfg.Faults = sc.f
			var runs [3]*ChaosResult
			for i := range runs {
				if i == 2 {
					cfg.Seed++
				}
				res, err := RunChaos(cfg)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = res
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Fatalf("two storms from one seed differ:\n%+v\n%+v", runs[0], runs[1])
			}
			if reflect.DeepEqual(runs[0], runs[2]) {
				t.Fatalf("seeds %d and %d gave the same storm: the seed is not reaching it\n%+v", cfg.Seed-1, cfg.Seed, runs[0])
			}
		})
	}
}

// TestChaosWedgeFailsAtTheTimeLimit: a storm still running at its
// virtual-time limit fails, naming the limit and the schedule's last
// step, rather than hanging.
func TestChaosWedgeFailsAtTheTimeLimit(t *testing.T) {
	t.Parallel()
	cfg := quickChaosConfig()
	cfg.Faults = &FaultSchedule{KillRestart: true, LeaseMs: 60_000}
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
// after recovery. The falsification subtests prove both mechanisms are
// load-bearing: disabling either one breaks the same run, on
// faultChaosConfig's seed, every time.
func TestChaosSurvivesKillRestartMidRebalance(t *testing.T) {
	t.Parallel()
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := faultChaosConfig()
			cfg.Seed = seed
			cfg.Faults = &FaultSchedule{KillRestart: true, LeaseMs: 60_000}
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

	t.Run("FailsWithoutCatchUpReplay", func(t *testing.T) {
		t.Parallel()
		cfg := faultChaosConfig()
		cfg.Faults = &FaultSchedule{KillRestart: true, LeaseMs: 60_000, DisableCatchUpReplay: true}
		if _, err := RunChaos(cfg); err == nil {
			t.Fatal("run passed with catch-up replay disabled: the survival test does not actually depend on replay")
		}
	})
	t.Run("FailsWithoutFailover", func(t *testing.T) {
		t.Parallel()
		cfg := faultChaosConfig()
		cfg.Faults = &FaultSchedule{KillRestart: true, LeaseMs: 60_000, DisableFailover: true}
		if _, err := RunChaos(cfg); err == nil {
			t.Fatal("run passed with read failover disabled: the survival test does not actually depend on failover")
		}
	})
}

// TestChaosSurvivesPartitionedReplica partitions a node away mid-storm
// with a short (40ms) lease and paces the storm past the expiry, so a
// rebalance reclaims the victim's ranges while it is unreachable; the
// heal then rejoins a node whose queued catch-ups partly target ranges
// it no longer owns. Same integrity bar as the kill test: no lost
// acked writes, a serially-consistent CAS history, byte-identical
// replicas after heal.
func TestChaosSurvivesPartitionedReplica(t *testing.T) {
	t.Parallel()
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := faultChaosConfig()
			cfg.Seed = seed
			cfg.Faults = &FaultSchedule{Partition: true, LeaseMs: 40}
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

	t.Run("FailsWithoutFailover", func(t *testing.T) {
		t.Parallel()
		cfg := faultChaosConfig()
		cfg.Faults = &FaultSchedule{Partition: true, LeaseMs: 40, DisableFailover: true}
		if _, err := RunChaos(cfg); err == nil {
			t.Fatal("run passed with read failover disabled: the survival test does not actually depend on failover")
		}
	})
}
