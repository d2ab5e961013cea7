package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/model"
)

// badSkills are worker skills no skill set is built for: a negative one,
// which used to panic model.NewSkillSet, and one far above model.MaxSkill,
// which used to cost about a second and over 128 MB in one skill set.
var badSkills = []struct {
	skill model.Skill
	want  string
}{
	{-1, "negative skill -1"},
	{1 << 30, fmt.Sprintf("skill 1073741824 above the maximum %d", model.MaxSkill)},
}

// TestRegisterWorkerRejectsBadSkills: POST /v1/workers answers 422 with the
// skill named, instead of panicking in the handler and dropping the
// connection, and registers nothing.
func TestRegisterWorkerRejectsBadSkills(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()
	for _, c := range badSkills {
		body := fmt.Sprintf(`{"x":0,"y":0,"start":0,"wait":100,"velocity":1,"max_dist":10,"skills":[0,%d]}`, c.skill)
		resp, out := postJSON(t, ts.URL+"/v1/workers", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("skill %d: status %d (%v), want 422", c.skill, resp.StatusCode, out)
		}
		if msg, _ := out["error"].(string); !strings.Contains(msg, c.want) {
			t.Fatalf("skill %d: error %q, want it to contain %q", c.skill, msg, c.want)
		}
	}
	if n := len(p.InstanceView().Workers); n != 0 {
		t.Fatalf("%d workers registered from rejected bodies", n)
	}
}

// TestReplayRejectsBadSkills: a journal worker entry with such a skill,
// alone or inside a group-commit batch record, fails replay with its line
// number instead of panicking.
func TestReplayRejectsBadSkills(t *testing.T) {
	good := `{"kind":"worker","worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[0]}}` + "\n"
	for _, c := range badSkills {
		bad := fmt.Sprintf(`{"kind":"worker","worker":{"x":1,"y":1,"wait":1,"velocity":1,"max_dist":1,"skills":[%d]}}`, c.skill)
		for name, body := range map[string]string{
			"entry": good + bad + "\n",
			"batch": good + `{"kind":"batch","v":2,"entries":[` + strings.TrimSuffix(good, "\n") + `,` + bad + `]}` + "\n",
		} {
			p, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
			_, err := ReplayJournal(strings.NewReader(body), p)
			want := "server: journal line 2: worker: skills: " + c.want
			if err == nil || err.Error() != want {
				t.Fatalf("skill %d in a %s: replay error %v, want %q", c.skill, name, err, want)
			}
		}
	}
}

// TestReadSnapshotRejectsSkillAboveMax: a snapshot whose instance holds a
// worker skill above model.MaxSkill fails to load with the skill named,
// through the one-pass decoder's fallback to the strict one.
func TestReadSnapshotRejectsSkillAboveMax(t *testing.T) {
	body := `{"version":1,"instance":{"version":1,"workers":[{"id":0,"wait":1,"skills":[1073741824]}]}}`
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("server: snapshot instance: dataset: worker w0 has skill 1073741824 above the maximum %d", model.MaxSkill)
	if err := p.ReadSnapshot(bytes.NewReader([]byte(body))); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
}
