package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/netsim"
	"repro/internal/tcpip"
)

// TestProbesSurviveLossyWire runs a three-node fleet with no kill on
// the chaos soak wire (burst loss, corruption, duplication, reordering)
// at the production probe timing. A lost SYN or SYN-ACK must not cost a
// healthy node its place in the rotation: after three seconds every
// node is up and none ever went down.
func TestProbesSurviveLossyWire(t *testing.T) {
	if testing.Short() {
		t.Skip("lossy-wire probe soak skipped in -short mode")
	}
	for _, seed := range []uint64{1, 2, 3, 4} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			hub := netsim.NewHub()
			t.Cleanup(hub.Close)
			if err := hub.SetFaultPlan(chaos.SoakPlan(seed)); err != nil {
				t.Fatal(err)
			}
			cl, err := New(hub, Config{
				Nodes:          3,
				Target:         tcpip.IP4(10, 0, 0, 3),
				TargetPort:     backendPort,
				Secure:         true,
				ServerKey:      rsaKey(t),
				TicketMaterial: []byte("fleet ticket material"),
				RandSeed:       seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			time.Sleep(3 * time.Second)
			b := cl.Balancer()
			if downs, up := b.Stats().NodeDowns.Value(), b.UpCount(); downs != 0 || up != 3 {
				t.Errorf("%d node downs, %d/3 up at end; want 0 and 3", downs, up)
			}
		})
	}
}
