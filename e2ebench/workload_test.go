package main

import "testing"

// One seed always yields the byte-identical request stream; another seed
// yields a different one.
func TestStreamDeterministicPerSeed(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, err := newWorkload(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := newWorkload(name, 7)
			c, _ := newWorkload(name, 8)
			n := 2 * a.round
			if da, db := a.streamDigest(n), b.streamDigest(n); da != db {
				t.Fatalf("seed 7 gave two different streams: %s vs %s", da, db)
			}
			if da, dc := a.streamDigest(n), c.streamDigest(n); da == dc {
				t.Fatalf("seeds 7 and 8 gave the same stream %s", da)
			}
		})
	}
}

// Every round holds the same mix of graphs and options (request seeds
// aside) whatever the seed, so two seeds measure the same traffic. For
// serve-corpus the rounds are counted in fresh keys, whose repeats follow
// at seeded distances.
func TestRoundMixIndependentOfSeed(t *testing.T) {
	mixOf := func(name string, seed int64) []map[string]int {
		w, err := newWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		var reqs []request
		size := w.round
		if name == "serve-corpus" {
			size = w.round / 2
			seen := make(map[int]bool)
			for _, r := range w.stream {
				if !seen[r.Key] {
					seen[r.Key] = true
					reqs = append(reqs, r)
				}
			}
		} else {
			reqs = w.stream
		}
		var rounds []map[string]int
		for b := 0; b < 3; b++ {
			m := make(map[string]int)
			for _, r := range reqs[b*size : (b+1)*size] {
				class := string(r.Opts.Method) + "/" + boolStr(r.Opts.UseSimulator)
				if name != "serve-large" {
					class += "/" + w.graphs[r.Graph].Name()
				}
				m[class]++
			}
			rounds = append(rounds, m)
		}
		return rounds
	}
	for _, name := range workloadNames {
		a, b := mixOf(name, 1), mixOf(name, 2)
		for round := range a {
			if len(a[round]) != len(b[round]) {
				t.Fatalf("%s round %d: %d classes vs %d", name, round, len(a[round]), len(b[round]))
			}
			for k, v := range a[round] {
				if b[round][k] != v {
					t.Fatalf("%s round %d: class %s sent %d times vs %d", name, round, k, v, b[round][k])
				}
			}
		}
	}
}

func boolStr(b bool) string {
	if b {
		return "sim"
	}
	return "model"
}

// serve-corpus sends every fresh key exactly twice and repeats about half
// of its requests; serve-rl and serve-large never repeat one.
func TestRepeatStructure(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name, 3)
		seen := make(map[int]int)
		n := 10 * w.round
		for _, r := range w.stream[:n] {
			seen[r.Key]++
		}
		repeats := n - len(seen)
		switch name {
		case "serve-corpus":
			if share := float64(repeats) / float64(n); share < 0.4 || share > 0.55 {
				t.Errorf("%s: repeat share %.2f, want about one half", name, share)
			}
			for k, c := range seen {
				if c > 2 {
					t.Fatalf("%s: key %d sent %d times", name, k, c)
				}
			}
		default:
			if repeats != 0 {
				t.Errorf("%s: %d repeats, want none", name, repeats)
			}
		}
	}
}
