package mcmpart

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"
)

// serializedOptionFields returns the indices of the PlanOptions fields that
// travel on the wire — every field not tagged `json:"-"` — so a field added
// later is covered by the tests below without editing them.
func serializedOptionFields() []int {
	var idx []int
	typ := reflect.TypeOf(PlanOptions{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Tag.Get("json") != "-" {
			idx = append(idx, i)
		}
	}
	return idx
}

// bump moves v to a different, non-zero value (from the zero value) of its
// kind, distinct per delta.
func bump(t *testing.T, v reflect.Value, delta int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + int64(delta))
	case reflect.String:
		v.SetString(v.String() + "-" + string(rune('a'+delta)))
	default:
		t.Fatalf("no bump for option kind %s; extend the wire tests", v.Kind())
	}
}

// wireTestGraph is a fixed two-node graph for the golden encodings.
func wireTestGraph() *Graph {
	g := NewGraph("g")
	a := g.AddNode(Node{Name: "a", Op: OpKind(4), FLOPs: 1e6, ParamBytes: 1024, OutputBytes: 256})
	b := g.AddNode(Node{Name: "b", Op: OpKind(4), FLOPs: 2e6, ParamBytes: 2048, OutputBytes: 512})
	g.MustAddEdge(a, b, 256)
	return g
}

// TestOptionsWireRoundTrip sends a request with every serialized option set
// through the real wire: the client's encoding and the daemon's strict
// decoder. SeedFromAnalytic was once dropped by a hand-written converter,
// silently disabling analytic seeding for every remote caller; setting the
// fields by reflection keeps the next PlanOptions addition from repeating
// that.
func TestOptionsWireRoundTrip(t *testing.T) {
	var opts PlanOptions
	v := reflect.ValueOf(&opts).Elem()
	for n, i := range serializedOptionFields() {
		bump(t, v.Field(i), n+1)
	}
	body, err := json.Marshal(PlanRequestWire{Graph: wireTestGraph(), Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req, ok := decodePlanRequest(rec, httptest.NewRequest("POST", "/v1/plan", bytes.NewReader(body)))
	if !ok {
		t.Fatalf("daemon rejected the request: %s", rec.Body)
	}
	got := reflect.ValueOf(req.Options)
	for _, i := range serializedOptionFields() {
		name := v.Type().Field(i).Name
		if !reflect.DeepEqual(got.Field(i).Interface(), v.Field(i).Interface()) {
			t.Errorf("%s did not round-trip: got %v, want %v", name, got.Field(i), v.Field(i))
		}
	}
}

// TestWireGoldenJSON pins the exact bytes of a plan request and a plan
// response. Disk-tier entries are Result encodings addressed by the cache
// key, so any drift here would also strand every persisted plan.
func TestWireGoldenJSON(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{
			"request",
			PlanRequestWire{Graph: wireTestGraph(), Options: PlanOptions{
				Method: MethodFineTune, SampleBudget: 321, Seed: 77, UseSimulator: true, SeedFromAnalytic: true,
				Progress: func(ProgressEvent) {},
			}},
			`{"graph":{"name":"g","nodes":[{"id":0,"name":"a","op":4,"flops":1000000,"param_bytes":1024,"output_bytes":256},{"id":1,"name":"b","op":4,"flops":2000000,"param_bytes":2048,"output_bytes":512}],"edges":[{"from":0,"to":1,"bytes":256}]},"options":{"method":"finetune","sample_budget":321,"seed":77,"use_simulator":true,"seed_from_analytic":true}}`,
		},
		{
			"response",
			PlanResponse{
				Result: &Result{Partition: Partition{0, 1}, Throughput: 12.5, Improvement: 1.25, Samples: 2,
					History: []float64{1, 1.25}, FailCounts: map[string]int{"memory": 1}},
				Cached: true, Coalesced: true, GraphFingerprint: "abc", Error: "e",
			},
			`{"result":{"partition":[0,1],"throughput":12.5,"improvement":1.25,"samples":2,"history":[1,1.25],"fail_counts":{"memory":1}},"cached":true,"coalesced":true,"graph_fingerprint":"abc","error":"e"}`,
		},
		{"zero options", PlanOptions{}, `{}`},
		{"zero result", Result{}, `{"partition":null,"throughput":0,"improvement":0,"samples":0}`},
	}
	for _, c := range cases {
		got, err := json.Marshal(c.v)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s wire bytes moved:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}

// TestPlanCacheKeyCoversEveryOption pins the cache-key half of "one
// definition per concept": every option that travels on the wire can change
// a plan, so varying any one of them must change the key, while Progress
// (observation only) must not.
func TestPlanCacheKeyCoversEveryOption(t *testing.T) {
	base, err := PlanOptions{Method: MethodRandom}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	key := func(o PlanOptions) string { return planCacheKey("gfp", "pfp", "wfp", o) }
	want := key(base)
	for n, i := range serializedOptionFields() {
		varied := base
		bump(t, reflect.ValueOf(&varied).Elem().Field(i), n+1)
		if key(varied) == want {
			t.Errorf("varying %s leaves the plan-cache key unchanged", reflect.TypeOf(base).Field(i).Name)
		}
	}
	withProgress := base
	withProgress.Progress = func(ProgressEvent) {}
	if key(withProgress) != want {
		t.Error("setting Progress changed the plan-cache key")
	}
}
