package loadgen

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func sampleReport(measuredRPS float64, durNs, reqs uint64) *Report {
	return &Report{
		Seed: 1, Clients: 1000, Requests: 2,
		Concurrency: 32, Resume: 0.95,
		Measured: MeasuredReport{
			RPS: measuredRPS, DurationNs: durNs, Requests: reqs,
		},
	}
}

func TestAttachBaselineDelta(t *testing.T) {
	old := sampleReport(313, 6_388_795_114, 2000)
	cur := sampleReport(939, 2_129_598_371, 2000)
	cur.AttachBaseline(old)
	d := cur.Baseline
	if d == nil {
		t.Fatal("no baseline_delta attached")
	}
	if !d.Comparable {
		t.Error("identical workloads should be comparable")
	}
	if d.MeasuredRPS.Old != 313 || d.MeasuredRPS.New != 939 {
		t.Errorf("measured rps delta = %+v", d.MeasuredRPS)
	}
	if math.Abs(d.MeasuredRPS.Pct-200) > 0.01 {
		t.Errorf("measured rps pct = %v, want 200", d.MeasuredRPS.Pct)
	}
	// Per-request wall cost should shrink by the same 3x.
	if math.Abs(d.MeasuredReqNs.Pct - -66.66) > 0.1 {
		t.Errorf("ns/request pct = %v, want about -66.7", d.MeasuredReqNs.Pct)
	}

	var buf bytes.Buffer
	if err := cur.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "baseline delta:") {
		t.Error("text report missing baseline delta section")
	}
	if strings.Contains(buf.String(), "workloads differ") {
		t.Error("comparable run flagged as differing")
	}
}

func TestAttachBaselineIncomparable(t *testing.T) {
	old := sampleReport(313, 6_388_795_114, 2000)
	old.Clients = 32 // a smoke-sized baseline against a full run
	cur := sampleReport(939, 2_129_598_371, 2000)
	cur.AttachBaseline(old)
	if cur.Baseline.Comparable {
		t.Error("different client counts must not be comparable")
	}
	var buf bytes.Buffer
	if err := cur.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "workloads differ") {
		t.Error("text report should flag incomparable workloads")
	}
}

func TestReadReportRoundTrip(t *testing.T) {
	old := sampleReport(313, 6_388_795_114, 2000)
	var buf bytes.Buffer
	if err := old.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Measured.RPS != old.Measured.RPS || back.Seed != old.Seed {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if _, err := ReadReport(strings.NewReader("{not json")); err == nil {
		t.Error("garbage baseline should fail to parse")
	}
}
