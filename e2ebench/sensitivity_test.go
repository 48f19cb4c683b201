package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"mcmpart"
	"mcmpart/internal/faultinject"
)

// bounds reads the end-to-end bounds from BENCHMARK.json.
func bounds(t *testing.T) map[string]float64 {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	m := make(map[string]float64)
	for _, e := range spec.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}

// coldWarmP50 runs two serve-corpus rounds against a fresh in-process
// daemon and returns the cold and warm median latencies in ms.
func coldWarmP50(t *testing.T, w *workload) (float64, float64) {
	t.Helper()
	svc, err := mcmpart.NewService(w.pkg, mcmpart.ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(mcmpart.NewHTTPHandler(svc))
	defer srv.Close()
	outs, _, _ := runLoop(context.Background(), w, loopConfig{
		base: srv.URL, conns: 2, positions: allPositions(2 * w.round), timeout: time.Minute,
	})
	var cold, warm []float64
	for _, o := range outs {
		var a answer
		if o.status != 200 || json.Unmarshal(o.body, &a) != nil {
			continue
		}
		if a.Cached {
			warm = append(warm, float64(o.lat)/1e6)
		} else {
			cold = append(cold, float64(o.lat)/1e6)
		}
	}
	c, okc := percentile(cold, 0.5)
	h, okw := percentile(warm, 0.5)
	if !okc || !okw {
		t.Fatalf("too few samples: %d cold, %d warm", len(cold), len(warm))
	}
	return c, h
}

// A delay injected where a worker starts planning must move cold_p50_ms on
// serve-corpus beyond its bound while warm_p50_ms stays within its own:
// the two metrics separate the cold path from the warm path.
func TestSensitivityColdVersusWarm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two serve-corpus rounds twice")
	}
	b := bounds(t)
	w, err := newWorkload("serve-corpus", 1)
	if err != nil {
		t.Fatal(err)
	}
	cold0, warm0 := coldWarmP50(t, w)
	faultinject.Enable(faultinject.NewSet(1, faultinject.Rule{
		Point: faultinject.PointPlanEvaluate,
		Fault: faultinject.Fault{Delay: 3 * time.Millisecond},
		Every: 1,
	}))
	defer faultinject.Disable()
	cold1, warm1 := coldWarmP50(t, w)
	t.Logf("cold p50 %.3f -> %.3f ms, warm p50 %.3f -> %.3f ms", cold0, cold1, warm0, warm1)
	if cold1 <= cold0*(1+b["cold_p50_ms"]) {
		t.Errorf("cold_p50_ms moved %.3f -> %.3f ms, not beyond its bound %.2f", cold0, cold1, b["cold_p50_ms"])
	}
	if warm1 > warm0*(1+b["warm_p50_ms"]) {
		t.Errorf("warm_p50_ms moved %.3f -> %.3f ms, beyond its bound %.2f", warm0, warm1, b["warm_p50_ms"])
	}
}
