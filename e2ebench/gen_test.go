package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"chatvis/internal/eval"
	"chatvis/internal/imgcmp"
	"chatvis/internal/llm"
)

func requestList(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := newGenerator(workload, seed)
	if err != nil {
		t.Fatal(err)
	}
	units, err := g.list(n)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Pool  []*jobSpec
		Units []unit
	}{g.pool, units})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloads {
		a, b := requestList(t, wl, 7, 300), requestList(t, wl, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different request lists", wl)
		}
	}
}

func TestSeedChangesParameters(t *testing.T) {
	for _, wl := range workloads {
		a, b := requestList(t, wl, 1, 100), requestList(t, wl, 2, 100)
		if bytes.Equal(a, b) {
			t.Errorf("%s: seeds 1 and 2 produced the same request list", wl)
		}
	}
	// Parameters, not just order: the first iso job's isovalue differs.
	iso := func(seed int64) string {
		g, _ := newGenerator(wlCold, seed)
		for {
			u, _ := g.next()
			if u.Job.Scenario == "iso" {
				return u.Job.Prompt
			}
		}
	}
	if iso(1) == iso(2) {
		t.Error("seeds 1 and 2 drew the same iso prompt")
	}
}

// meaningKey is what the daemon keys a job by: the parsed intent, the
// model and the view size.
func meaningKey(j *jobSpec) string {
	return fmt.Sprintf("%s|%dx%d|%+v", j.Model, j.Width, j.Height, llm.ParseIntent(j.Prompt))
}

// TestColdMixDistinct checks the cold-mix property: no two requests share
// a coalescing key, every (scenario, model) pair occurs equally often,
// and the intent parser reads each substituted parameter back.
func TestColdMixDistinct(t *testing.T) {
	g, err := newGenerator(wlCold, 3)
	if err != nil {
		t.Fatal(err)
	}
	units, err := g.list(720)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	pairs := map[string]int{}
	for _, u := range units {
		key := meaningKey(u.Job)
		if keys[key] {
			t.Fatalf("duplicate request %s", key)
		}
		keys[key] = true
		pairs[u.Job.Scenario+"/"+u.Job.Model]++
	}
	if want := len(eval.Scenarios()) * len(models); len(pairs) != want {
		t.Errorf("%d (scenario, model) pairs, want %d", len(pairs), want)
	}
	for p, n := range pairs {
		if n != 20 {
			t.Errorf("%s drawn %d times in 720 requests, want 20", p, n)
		}
	}
}

// TestRepeatMixOutcomes checks that repeat-mix jobs expected to execute
// share no key with the pool or with each other, and that every repeat
// means the same as the pool entry it names.
func TestRepeatMixOutcomes(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, err := newGenerator(wlRepeat, seed)
		if err != nil {
			t.Fatal(err)
		}
		keys := map[string]bool{}
		for _, j := range g.pool {
			keys[meaningKey(j)] = true
		}
		units, err := g.list(3000)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range units {
			j, key := u.Job, meaningKey(u.Job)
			if j.Expect == expectStore {
				if want := meaningKey(g.pool[j.Reuses]); key != want {
					t.Fatalf("seed %d: %s repeat means %s, pool entry %s", seed, j.Variant, key, want)
				}
				continue
			}
			if keys[key] {
				t.Fatalf("seed %d: %s job repeats an earlier key %s", seed, j.Variant, key)
			}
			keys[key] = true
		}
	}
}

// TestGroundTruthsShowSomething renders generated ground truths and
// checks each passes the image rule against itself, so a seed can never
// draw parameters whose correct answer is a blank screenshot.
func TestGroundTruthsShowSomething(t *testing.T) {
	if testing.Short() {
		t.Skip("renders ground truths")
	}
	dir := t.TempDir()
	if err := eval.EnsureData(dir+"/data", eval.DataSmall); err != nil {
		t.Fatal(err)
	}
	gt := newGroundTruther(dir+"/data", dir+"/gt")
	g, err := newGenerator(wlCold, 11)
	if err != nil {
		t.Fatal(err)
	}
	n := 6 * len(eval.Scenarios()) * len(models)
	if s := os.Getenv("E2EBENCH_GT_JOBS"); s != "" {
		fmt.Sscan(s, &n)
	}
	bad := map[string]int{}
	for i := 0; i < n; i++ {
		u, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		img, err := gt.render(u.Job.GroundTruth)
		if err != nil {
			t.Fatalf("%s: %v", u.Job.Scenario, err)
		}
		m, _ := imgcmp.Compare(img, img)
		if !imgcmp.MatchesGroundTruth(m, img, img) {
			bad[u.Job.Scenario]++
			t.Errorf("%s ground truth renders blank: %s", u.Job.Scenario, firstLine(u.Job.Prompt))
		}
	}
	if len(bad) > 0 {
		t.Logf("blank ground truths by scenario: %v", bad)
	}
}

func firstLine(prompt string) string {
	if i := strings.Index(prompt, "Read in"); i >= 0 {
		prompt = prompt[i:]
	}
	return prompt
}

// TestRepeatMixShares checks that the four repeat-mix kinds are drawn in
// equal shares and that repeats favour the popular pool entries.
func TestRepeatMixShares(t *testing.T) {
	g, err := newGenerator(wlRepeat, 5)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	units, err := g.list(n)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	reuses := make([]int, len(g.pool))
	for _, u := range units {
		k := u.Job.Variant
		if u.Kind == unitPair {
			k = "pair"
		}
		kinds[k]++
		if u.Job.Reuses >= 0 {
			reuses[u.Job.Reuses]++
		}
	}
	for _, k := range []string{"exact", "reworded", "pair", "render-only"} {
		if kinds[k] != n/repeatKinds {
			t.Errorf("%s drawn %d times in %d units, want %d", k, kinds[k], n, n/repeatKinds)
		}
	}
	if last := reuses[len(reuses)-1]; reuses[0] < 5*last {
		t.Errorf("top pool entry repeated %d times, last %d: no skew", reuses[0], last)
	}
}

// TestUniqueValueRunsOut checks that a used-up range ends the run with
// an error instead of looping.
func TestUniqueValueRunsOut(t *testing.T) {
	g, err := newGenerator(wlSession, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v := g.uniqueValue("x", 0.25, 0.25); v != "0.2500" || g.err != nil {
		t.Fatalf("first draw %q, err %v", v, g.err)
	}
	g.uniqueValue("x", 0.25, 0.25)
	if g.err == nil {
		t.Fatal("second draw from a one-value range did not fail")
	}
	if _, err := g.next(); err == nil {
		t.Fatal("next returned no error after a range ran out")
	}
}

// TestSessionEditKinds checks that every session sends its track's six
// edit kinds, with the slice added before it is moved.
func TestSessionEditKinds(t *testing.T) {
	g, err := newGenerator(wlSession, 9)
	if err != nil {
		t.Fatal(err)
	}
	units, err := g.list(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		count := map[string]int{}
		sliced := false
		for _, turn := range u.Turns[1:] {
			count[turn.Kind]++
			switch turn.Kind {
			case "slice-the-clip", "glyphs-on-slice":
				sliced = true
			case "slice-move":
				if !sliced {
					t.Fatalf("%s session moves its slice before adding it", u.Track)
				}
			}
		}
		want := map[string]int{}
		for _, k := range trackEdits[u.Track] {
			want[k]++
		}
		if fmt.Sprint(count) != fmt.Sprint(want) {
			t.Fatalf("%s session sends %v, want %v", u.Track, count, want)
		}
	}
}
