package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"mcmpart"
)

// answer is the body of a POST /v1/plan response, success or error.
type answer struct {
	Result json.RawMessage `json:"result"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
}

// verdict classifies one outcome after the output check.
type verdict struct {
	ok       bool // 200 with a plan that passed every check
	rejected bool // deterministic rejection the in-process planner reproduces
	cached   bool
	result   *mcmpart.ResultWire
}

// checker holds the output check's state across one run's answers.
type checker struct {
	w       *workload
	planner *mcmpart.Planner
	// first maps a request key to the first plan answered for it; every
	// later answer for the key (cached, coalesced or re-planned after
	// eviction) must be byte-identical.
	first map[int][]byte
	// rejections maps a key to the error message the in-process planner
	// returned for it.
	rejections map[int]string
	problems   []string
	// unexpected counts transport errors, timeouts, and statuses other
	// than 200 and the reproduced rejections.
	unexpected int
}

func newChecker(w *workload, planner *mcmpart.Planner) *checker {
	return &checker{w: w, planner: planner, first: make(map[int][]byte), rejections: make(map[int]string)}
}

func (c *checker) fail(format string, args ...any) {
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// check verifies one answer:
//   - a 200 plan passes mcmpart.Validate on the daemon's package, and its
//     throughput equals Planner.Assess in the request's environment, bit
//     for bit;
//   - every answer for a key is byte-identical to the first one;
//   - a 400 carries exactly the error the in-process planner returns for
//     the same request (the deterministic "no feasible layout" and
//     "greedy baseline invalid" rejections).
func (c *checker) check(ctx context.Context, o outcome) verdict {
	req := c.w.stream[o.pos]
	if o.err != nil || o.status == 0 {
		c.unexpected++
		return verdict{}
	}
	var a answer
	if err := json.Unmarshal(o.body, &a); err != nil {
		c.fail("position %d: undecodable %d answer: %v", o.pos, o.status, err)
		return verdict{}
	}
	g := c.w.graphs[req.Graph]
	opts := req.Opts.Options()
	switch o.status {
	case http.StatusOK:
	case http.StatusBadRequest:
		want, seen := c.rejections[req.Key]
		if !seen {
			_, err := c.planner.Plan(ctx, g, opts)
			if err != nil {
				want = err.Error()
			}
			c.rejections[req.Key] = want
		}
		if want == "" || want != a.Error {
			c.fail("position %d (%s): daemon rejected with %q, in-process planner says %q", o.pos, g.Name(), a.Error, want)
			return verdict{}
		}
		return verdict{rejected: true}
	default:
		c.unexpected++
		return verdict{}
	}
	if a.Error != "" || len(a.Result) == 0 {
		c.fail("position %d: 200 without a complete plan (error %q)", o.pos, a.Error)
		return verdict{}
	}
	var res mcmpart.ResultWire
	if err := json.Unmarshal(a.Result, &res); err != nil {
		c.fail("position %d: undecodable result: %v", o.pos, err)
		return verdict{}
	}
	if prev, ok := c.first[req.Key]; !ok {
		c.first[req.Key] = a.Result
		if err := mcmpart.Validate(g, c.w.pkg, res.Partition); err != nil {
			c.fail("position %d (%s): invalid plan: %v", o.pos, g.Name(), err)
			return verdict{}
		}
		if v := c.planner.Assess(g, res.Partition, opts); math.Float64bits(v.Throughput) != math.Float64bits(res.Throughput) {
			c.fail("position %d (%s): throughput %v, Assess gives %v", o.pos, g.Name(), res.Throughput, v.Throughput)
			return verdict{}
		}
	} else if !bytes.Equal(prev, a.Result) {
		c.fail("position %d (%s): answer differs from the earlier answer to the same request (cached=%v)", o.pos, g.Name(), a.Cached)
		return verdict{}
	}
	return verdict{ok: true, cached: a.Cached, result: &res}
}

// answerDigest hashes the answers to the prefix every run completes: per
// position, the status and the plan or error. Cache flags and timings are
// left out, so the digest is a function of the seed alone.
func answerDigest(outs []outcome, n int) (string, error) {
	byPos := make(map[int]outcome, len(outs))
	for _, o := range outs {
		byPos[o.pos] = o
	}
	h := sha256.New()
	for pos := 0; pos < n; pos++ {
		o, ok := byPos[pos]
		if !ok {
			return "", fmt.Errorf("position %d of the digest prefix was not sent", pos)
		}
		var a answer
		_ = json.Unmarshal(o.body, &a) // an undecodable body hashes as empty; check reports it
		fmt.Fprintf(h, "%d %d %d\n", pos, o.status, len(a.Result))
		h.Write(a.Result)
		h.Write([]byte(a.Error))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// pinDigest compares the digest of the first n answers with the one an
// earlier run of the same workload, seed and source tree stored under dir,
// storing it if there is none.
func pinDigest(dir string, cfg config, n int, digest string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-n%d-%s.sha256", cfg.workload, cfg.seed, n, cfg.source))
	if prev, err := os.ReadFile(path); err == nil {
		if got := strings.TrimSpace(string(prev)); got != digest {
			return fmt.Errorf("answer digest %s differs from an earlier run's %s", digest, got)
		}
		return nil
	}
	return os.WriteFile(path, []byte(digest+"\n"), 0o644)
}
