package dynopt

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"smarq/internal/faultinject"
	"smarq/internal/guest"
	"smarq/internal/health"
	"smarq/internal/telemetry"
	"smarq/internal/workload"
)

// controlPlaneDigests are SHA-256 digests of one pinned chaos run: the
// JSONL event trace, the metrics snapshot, and the %+v rendering of
// Stats.
type controlPlaneDigests struct {
	trace, metrics, stats string
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runControlPlane runs equake to halt under heavy host chaos with the
// health controller and the private memo on, and digests everything the
// run makes observable.
func runControlPlane(t *testing.T, workers int, seed int64) (*System, controlPlaneDigests) {
	t.Helper()
	bm, ok := workload.ByName("equake")
	if !ok {
		t.Fatal("equake missing from the suite")
	}
	cfg := ConfigSMARQ(64)
	cfg.Compile.Workers = workers
	cfg.Compile.Memoize = true
	cfg.Chaos = faultinject.DefaultHost(seed)
	cfg.Chaos.WorkerPanicRate = 0.1
	cfg.Chaos.PoisonResultRate = 0.1
	cfg.Chaos.CompileHangRate = 0.1
	cfg.Health = health.DefaultConfig()
	cfg.Health.DemoteThreshold = 10
	cfg.Health.PromoteAfter = 64
	var jb, mb bytes.Buffer
	tel := &telemetry.Telemetry{
		Events:  telemetry.NewTracer(0, telemetry.NewJSONLSink(&jb)),
		Metrics: telemetry.NewRegistry(),
	}
	cfg.Telemetry = tel
	sys := New(bm.Build(), &guest.State{}, guest.NewMemory(bm.MemSize), cfg)
	halted, err := sys.Run(bm.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	if !halted {
		t.Fatal("equake did not halt")
	}
	if err := tel.Events.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tel.Metrics.WriteJSON(&mb); err != nil {
		t.Fatal(err)
	}
	return sys, controlPlaneDigests{
		trace:   sha(jb.Bytes()),
		metrics: sha(mb.Bytes()),
		stats:   sha([]byte(fmt.Sprintf("%+v", sys.Stats))),
	}
}

// TestChaosControlPlanePinned pins the whole compile and recovery control
// plane — both compile paths, memo, host-fault containment, the region
// ladder and the health ladder — to digests recorded before the two
// paths and the two ladders were folded into one. Any change to what a
// run emits or counts under chaos shows up here as a digest mismatch.
func TestChaosControlPlanePinned(t *testing.T) {
	arms := []struct {
		name    string
		workers int
		seed    int64
		want    controlPlaneDigests
		check   func(t *testing.T, st *Stats)
	}{
		{
			name: "sync", workers: 0, seed: 23,
			want: controlPlaneDigests{
				trace:   "5bc20ce87cd39a06c8bd04fca65a13866ca199ede1f1d4cb0d9d5830a074ac15",
				metrics: "e3fc19fc4e3933c83207ed0029e331b2fc9423a197725e67d18e9702d90aeda5",
				stats:   "d8656fd7cd497eba557a3ca442452511bbf7185f71a15404064b98413816edc2",
			},
			check: func(t *testing.T, st *Stats) {
				c := st.Compile
				if c.WorkerPanics != 2 || c.Rejected != 3 || c.Quarantined != 2 || c.MemoEvictions != 3 {
					t.Errorf("host faults %+v, want 2 panics, 3 rejected, 2 quarantined, 3 memo evictions", c)
				}
				if h := st.Health; h.Demotions != 4 || h.Promotions != 2 || !h.Sticky {
					t.Errorf("health %+v, want 4 demotions, 2 promotions, sticky", h)
				}
			},
		},
		{
			name: "background", workers: 1, seed: 17,
			want: controlPlaneDigests{
				trace:   "abfc359ac473a547e04cf677f07343de2d72d09071d97b22132c2159f9d95876",
				metrics: "bf5f2ee3b4ae4ca76cdd66d414bb3eb0135a0c9a3b9f0160022e57a26ec2dd90",
				stats:   "c2f98df1c587b1dba5a1087e322547e4fa71c0e331ea9c7a2d47b4fdd2a832b6",
			},
			check: func(t *testing.T, st *Stats) {
				c := st.Compile
				if c.WorkerPanics != 1 || c.WatchdogKills != 2 || c.Rejected != 1 || c.MemoEvictions != 2 {
					t.Errorf("host faults %+v, want 1 panic, 2 watchdog kills, 1 rejected, 2 memo evictions", c)
				}
				if h := st.Health; h.Demotions != 4 || h.Promotions != 2 {
					t.Errorf("health %+v, want 4 demotions, 2 promotions", h)
				}
				if st.Recovery.Demotions != 3 {
					t.Errorf("region demotions %d, want 3", st.Recovery.Demotions)
				}
			},
		},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			sys, got := runControlPlane(t, arm.workers, arm.seed)
			arm.check(t, &sys.Stats)
			if got != arm.want {
				t.Errorf("control-plane digests drifted\n got %+v\nwant %+v", got, arm.want)
			}
		})
	}
}
