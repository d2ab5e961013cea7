package dataset

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dasc/internal/gen"
	"dasc/internal/model"
)

func roundTrip(t *testing.T, in *model.Instance) *model.Instance {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRoundTripExample1(t *testing.T) {
	in := model.Example1()
	out := roundTrip(t, in)
	if out.SkillUniverse != in.SkillUniverse {
		t.Errorf("universe %d != %d", out.SkillUniverse, in.SkillUniverse)
	}
	if len(out.Workers) != len(in.Workers) || len(out.Tasks) != len(in.Tasks) {
		t.Fatal("population mismatch")
	}
	for i := range in.Workers {
		a, b := &in.Workers[i], &out.Workers[i]
		if a.Loc != b.Loc || a.Start != b.Start || a.Wait != b.Wait ||
			a.Velocity != b.Velocity || a.MaxDist != b.MaxDist ||
			!a.Skills.Equal(b.Skills) {
			t.Errorf("worker %d changed: %+v vs %+v", i, a, b)
		}
	}
	for i := range in.Tasks {
		a, b := &in.Tasks[i], &out.Tasks[i]
		if a.Loc != b.Loc || a.Requires != b.Requires || !reflect.DeepEqual(a.Deps, b.Deps) {
			t.Errorf("task %d changed", i)
		}
	}
}

func TestRoundTripGenerated(t *testing.T) {
	in, err := gen.Synthetic(gen.DefaultSynthetic().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	out := roundTrip(t, in)
	if len(out.Tasks) != len(in.Tasks) {
		t.Fatal("task count changed")
	}
	for i := range in.Tasks {
		if !reflect.DeepEqual(in.Tasks[i].Deps, out.Tasks[i].Deps) {
			t.Fatalf("deps of task %d changed", i)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "inst.json")
	in := model.Example1()
	if err := Save(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Workers) != 3 || len(out.Tasks) != 5 {
		t.Errorf("loaded %d/%d", len(out.Workers), len(out.Tasks))
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestReadRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"wrong version": `{"version": 99, "skill_universe": 1, "workers": [], "tasks": []}`,
		"unknown field": `{"version": 1, "skill_universe": 1, "workers": [], "tasks": [], "extra": 1}`,
		"invalid instance (no skills)": `{"version": 1, "skill_universe": 1,
		  "workers": [{"id":0,"x":0,"y":0,"start":0,"wait":1,"velocity":1,"max_dist":1,"skills":[]}],
		  "tasks": []}`,
		"negative skill": `{"version": 1, "skill_universe": 1,
		  "workers": [{"id":0,"x":0,"y":0,"start":0,"wait":1,"velocity":1,"max_dist":1,"skills":[-1]}],
		  "tasks": []}`,
		"cyclic deps": `{"version": 1, "skill_universe": 1, "workers": [],
		  "tasks": [
		    {"id":0,"x":0,"y":0,"start":0,"wait":1,"requires":0,"deps":[1]},
		    {"id":1,"x":0,"y":0,"start":0,"wait":1,"requires":0,"deps":[0]}]}`,
	}
	for name, body := range cases {
		if _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestReadRejectsSkillAboveMax: a worker skill above model.MaxSkill fails
// the load with the skill named, on the one-pass path's fallback to the
// strict decoder, before any skill set is sized by it.
func TestReadRejectsSkillAboveMax(t *testing.T) {
	body := `{"version": 1, "skill_universe": 1,
	  "workers": [{"id":0,"x":0,"y":0,"start":0,"wait":1,"velocity":1,"max_dist":1,"skills":[0,1073741824]}],
	  "tasks": []}`
	want := fmt.Sprintf("dataset: worker w0 has skill 1073741824 above the maximum %d", model.MaxSkill)
	if _, err := Read(strings.NewReader(body)); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
	// The bound itself loads.
	ok := strings.Replace(body, "1073741824", fmt.Sprint(model.MaxSkill), 1)
	if _, err := Read(strings.NewReader(ok)); err != nil {
		t.Fatalf("skill %d rejected: %v", model.MaxSkill, err)
	}
}

func TestReadDedupsDuplicateDeps(t *testing.T) {
	// A file listing the same dependency twice loads with the duplicates
	// collapsed (first-occurrence order), rather than failing validation or
	// inflating associative-set weights downstream.
	body := `{"version": 1, "skill_universe": 1, "workers": [],
	  "tasks": [
	    {"id":0,"x":0,"y":0,"start":0,"wait":1,"requires":0},
	    {"id":1,"x":0,"y":0,"start":0,"wait":1,"requires":0},
	    {"id":2,"x":0,"y":0,"start":0,"wait":1,"requires":0,"deps":[1,0,1,0,1]}]}`
	in, err := Read(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := in.Tasks[2].Deps, []model.TaskID{1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("deps = %v, want %v", got, want)
	}
}

func TestWriteAssignment(t *testing.T) {
	a := model.NewAssignment()
	a.Add(1, 2)
	a.Add(0, 0)
	a.Sort()
	var buf bytes.Buffer
	if err := WriteAssignment(&buf, a); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"size": 2`) || !strings.Contains(s, `"worker": 1`) {
		t.Errorf("assignment JSON = %s", s)
	}
}

func TestSaveToUnwritablePath(t *testing.T) {
	if err := Save(filepath.Join(os.DevNull, "nope", "x.json"), model.Example1()); err == nil {
		t.Error("unwritable path accepted")
	}
}

func TestWriteCompactRoundTripsAndIsSmaller(t *testing.T) {
	in := model.Example1()
	var compact, indented bytes.Buffer
	if err := WriteCompact(&compact, in); err != nil {
		t.Fatal(err)
	}
	if err := Write(&indented, in); err != nil {
		t.Fatal(err)
	}
	if compact.Len() >= indented.Len() {
		t.Errorf("compact form %d bytes >= indented %d", compact.Len(), indented.Len())
	}
	// Single line (plus the encoder's trailing newline): embeddable in JSONL.
	if n := strings.Count(strings.TrimRight(compact.String(), "\n"), "\n"); n != 0 {
		t.Errorf("compact form spans %d extra lines", n+1)
	}
	out, err := Read(&compact)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Workers) != len(in.Workers) || len(out.Tasks) != len(in.Tasks) {
		t.Error("compact round trip lost population")
	}
}

// TestScanRecognisesWrittenInstances: the one-pass scan reads what Write and
// WriteCompact produce, instead of bailing to the strict decoder, and
// decodes exactly what the strict decoder does.
func TestScanRecognisesWrittenInstances(t *testing.T) {
	synth, err := gen.Synthetic(gen.DefaultSynthetic().Scale(0.01))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*model.Instance{model.Example1(), synth, {}} {
		for _, write := range []func(io.Writer, *model.Instance) error{Write, WriteCompact} {
			var buf bytes.Buffer
			if err := write(&buf, in); err != nil {
				t.Fatal(err)
			}
			fast, ok := scanDoc(buf.Bytes())
			if !ok {
				t.Fatalf("scan bailed on a written instance:\n%.200s", buf.Bytes())
			}
			strict, err := decodeStrict(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fast, strict) {
				t.Fatal("scan and strict decoder disagree on a written instance")
			}
		}
	}
}

// TestScanBailsOnWhatItCannotMirror: inputs the scan must leave to the
// strict decoder, because it would decode them differently or not at all.
func TestScanBailsOnWhatItCannotMirror(t *testing.T) {
	const w = `{"id":0,"x":0,"y":0,"start":0,"wait":1,"velocity":1,"max_dist":1,"skills":[0]}`
	doc := func(worker string) string {
		return `{"version":1,"skill_universe":1,"workers":[` + worker + `],"tasks":[]}`
	}
	if _, ok := scanDoc([]byte(doc(w))); !ok {
		t.Fatal("scan bailed on the well-formed base document")
	}
	for _, body := range []string{
		doc(strings.Replace(w, `"x":0`, `"x":+1`, 1)),
		doc(strings.Replace(w, `"x":0`, `"x":.5`, 1)),
		doc(strings.Replace(w, `"x":0`, `"x":01`, 1)),
		doc(strings.Replace(w, `"x":0`, `"x":1.`, 1)),
		doc(strings.Replace(w, `"x":0`, `"x":1e999`, 1)),
		doc(strings.Replace(w, `"x":0`, `"x":null`, 1)),
		doc(strings.Replace(w, `"x":0`, `"X":0`, 1)),
		doc(strings.Replace(w, `"x":0`, `"x":0,"x":1`, 1)),
		doc(strings.Replace(w, `"x":0`, `"\u0078":0`, 1)),
		doc(strings.Replace(w, `"id":0`, `"id":1e0`, 1)),
		doc(strings.Replace(w, `"id":0`, `"id":4294967296`, 1)),
		doc(strings.Replace(w, `"skills":[0]`, `"skills":[2.0]`, 1)),
		doc(strings.Replace(w, `"skills":[0]`, `"skills":[-1]`, 1)),
		doc(strings.Replace(w, `"skills":[0]`, `"skills":null`, 1)),
		doc(strings.Replace(w, `"skills":[0]`, `"skills":[0,]`, 1)),
		doc(w) + ` {}`,
		doc(w)[:len(doc(w))-1],
	} {
		if _, ok := scanDoc([]byte(body)); ok {
			t.Errorf("scan recognised %s", body)
		}
	}
}

// goldenIndented is Write's output for goldenInstance, written before the
// instance file and the server's journal shared one record type.
const goldenIndented = "testdata/golden_indented.json"

// goldenInstance is Example 1 with a weighted task and a worker whose skills
// are given out of order.
func goldenInstance() *model.Instance {
	in := model.Example1()
	in.Tasks[2].Weight = 2.5
	in.Tasks[3].Weight = 0.125
	in.Workers[2].Skills = model.NewSkillSet(2, 0, 1)
	in.Workers[1].Loc.X = -1e-7
	return in
}

// TestWriteMatchesGolden pins Write's indented bytes, and Read of them
// writes them back unchanged.
func TestWriteMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(goldenIndented)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Write(&got, goldenInstance()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Write differs from %s:\n got %s\nwant %s", goldenIndented, got.Bytes(), want)
	}
	in, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := Write(&got, in); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Read then Write changed %s:\n got %s", goldenIndented, got.Bytes())
	}
}
