package runcache

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/canonjson"
	"repro/internal/pipeline"
	"repro/internal/prog"
	"repro/internal/verify"
)

// FuzzDiskEntry writes arbitrary bytes as a key's entry file and looks
// the key up. Do may not panic, and exactly one of two things happens:
// the entry is recalled — its stored key is the key looked up, and the
// recalled result re-marshals to a canonical fixed point — or the file
// is removed and compute runs, leaving the freshly computed entry in
// its slot.
func FuzzDiskEntry(f *testing.F) {
	w, err := prog.ByName("micro.chain")
	if err != nil {
		f.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		f.Fatal(err)
	}
	cfg := verify.Panel()[0]
	cfg.CheckInvariants, cfg.RecordTimeline = false, false
	sim, err := pipeline.New(cfg, p)
	if err != nil {
		f.Fatal(err)
	}
	ran, err := sim.Run(1_000_000)
	if err != nil {
		f.Fatal(err)
	}
	const key = "fuzz-key"
	seedDir := f.TempDir()
	New().saveDisk(seedDir, key, ran)
	seed, err := os.ReadFile(diskPath(seedDir, key))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(key), []byte("other-key"), 1))
	f.Add([]byte(`{"key":"fuzz-key","stats":{"IssuedPerCycle":[18446744073709551615,1]}}`))
	f.Add([]byte(`{`))

	fresh := fakeStats(7)
	want, err := canonjson.Marshal(diskEntry{Key: key, Stats: fresh})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := diskPath(dir, key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		c := New()
		if err := c.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		computed := false
		st, hit, err := c.Do(key, func() (pipeline.Stats, error) {
			computed = true
			return fresh, nil
		})
		if err != nil {
			t.Fatalf("Do: %v", err)
		}
		if hit {
			var de diskEntry
			if err := json.Unmarshal(data, &de); err != nil || de.Key != key {
				t.Fatalf("recalled an entry stored under %q (decode err %v)", de.Key, err)
			}
			once, err := canonjson.Marshal(diskEntry{Key: key, Stats: st})
			if err != nil {
				t.Fatalf("recalled result does not marshal: %v", err)
			}
			var back diskEntry
			if err := json.Unmarshal(once, &back); err != nil {
				t.Fatalf("canonical entry does not decode: %v", err)
			}
			twice, err := canonjson.Marshal(back)
			if err != nil || !bytes.Equal(once, twice) {
				t.Fatalf("recalled result is not a canonical fixed point (err %v):\n%s\n%s", err, once, twice)
			}
			return
		}
		if !computed {
			t.Fatal("miss without compute")
		}
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("unusable entry not replaced by the computed one (err %v):\n%s", err, got)
		}
	})
}
