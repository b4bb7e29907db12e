package loadgen

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

func TestScheduleDeterministic(t *testing.T) {
	tpl := CatalogTemplates()
	a := Schedule(tpl, ScheduleOptions{Seed: 7})
	b := Schedule(tpl, ScheduleOptions{Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds produced different schedules")
	}
	c := Schedule(tpl, ScheduleOptions{Seed: 8})
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a) != 200 {
		t.Fatalf("default schedule length = %d; want 200", len(a))
	}
}

func TestScheduleIsZipfSkewedWithBursts(t *testing.T) {
	tpl := CatalogTemplates()
	reqs := Schedule(tpl, ScheduleOptions{Seed: 1, Requests: 1000})
	counts := map[string]int{}
	bursts := 0
	for i, r := range reqs {
		counts[r.TemplateID]++
		if r.Burst && (i == 0 || !reqs[i-1].Burst || reqs[i-1].TemplateID != r.TemplateID) {
			bursts++
		}
	}
	// Zipf: the hottest template must dominate a uniform draw's share.
	uniform := len(reqs) / len(tpl)
	hot := 0
	for _, id := range []string{tpl[0].ID, tpl[1].ID, tpl[2].ID} {
		if counts[id] > hot {
			hot = counts[id]
		}
	}
	if hot < 3*uniform {
		t.Errorf("hottest template got %d of %d requests; want Zipf-dominant (> %d)", hot, len(reqs), 3*uniform)
	}
	if bursts == 0 {
		t.Error("schedule contains no bursts")
	}
	// Bursts repeat one of the top-3 templates.
	top := map[string]bool{tpl[0].ID: true, tpl[1].ID: true, tpl[2].ID: true}
	for _, r := range reqs {
		if r.Burst && !top[r.TemplateID] {
			t.Fatalf("burst request for cold template %s", r.TemplateID)
		}
	}
}

func TestScheduleSystemMix(t *testing.T) {
	reqs := Schedule(CatalogTemplates(), ScheduleOptions{Seed: 2, Requests: 1000})
	bySystem := map[string]int{}
	for _, r := range reqs {
		bySystem[r.System]++
	}
	raShare := float64(bySystem["rapidanalytics"]) / float64(len(reqs))
	if raShare < 0.75 || raShare > 0.95 {
		t.Errorf("rapidanalytics share = %.2f; want ~0.85", raShare)
	}
	if bySystem["rapid+"] == 0 {
		t.Error("secondary system absent from the mix")
	}
}

// TestServeScheduleUnchanged pins the schedule the benchmark's serve-zipf
// workload replays (benchmark/serve.go passes exactly these options): a
// changed draw, mix or default moves the hash and with it every serving
// metric.
func TestServeScheduleUnchanged(t *testing.T) {
	reqs := Schedule(CatalogTemplates(), ScheduleOptions{
		Seed: 1, Requests: 500, ZipfS: 1.1, BurstEvery: 40, BurstSize: 8,
	})
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d %s %s %t %q\n", r.Slot, r.TemplateID, r.System, r.Burst, r.SPARQL)
	}
	const want = "88d60a740bd12e776c380a6ed3abd2f5ee8edd7b176d0ff87032398a6a2fcd9b"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Errorf("serving schedule hash = %s, want %s", got, want)
	}
}
