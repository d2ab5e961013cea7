package gen

import (
	"fmt"
	"math/rand"
	"sort"

	"dasc/internal/geo"
	"dasc/internal/model"
)

// MeetupConfig parameterises the Meetup-substitute workload. The paper
// builds its real dataset from a 2011–2012 Meetup crawl restricted to Hong
// Kong (3,525 workers, 1,282 tasks); that crawl is not redistributable, so
// this generator reproduces the *construction procedure* of Section V-A over
// a synthetic event-based social network: groups carry tag sets, events
// (task groups) belong to groups and inherit their tags, users carry tags
// from the groups they orbit. Tasks derive from events — one task per
// required tag occurrence, dependencies drawn from earlier tasks of the same
// task group and transitively closed — and workers derive from users.
//
// Temporal and motion parameters come from Table IV; its bold defaults are
// DefaultMeetup()'s values.
type MeetupConfig struct {
	Seed int64

	Workers int // paper's Hong Kong extract: 3,525
	Tasks   int // paper's Hong Kong extract: 1,282

	// Groups is the number of interest groups (task groups spring from
	// them); the Hong Kong extract is small, default 120.
	Groups int
	// TagUniverse is the number of distinct tags (= skills), default 400.
	TagUniverse int
	// TagsPerGroup is the tag-set size range per group, default [3, 8].
	TagsPerGroup Range
	// GroupsPerWorker is how many groups a user orbits, default [1, 3].
	GroupsPerWorker Range
	// GroupSpread is the spatial std-dev (in degrees) of a group's events
	// around its centre, default 0.02 (~2 km).
	GroupSpread float64
	// GroupTimeSpread is the window (in time units) over which one task
	// group's tasks appear after the group's first posting, default 10 —
	// a requester posts a project's subtasks together, which is what makes
	// dependencies bind within batches (the paper's house-repair story).
	GroupTimeSpread float64
	// DepSize is the per-task dependency-set size range within its task
	// group, default [0, 8] (the paper draws random subsets of the earlier
	// tasks of the group; groups average ~12 tasks).
	DepSize Range

	// Table IV temporal/motion ranges (bold defaults).
	StartTime Range // default [0, 200]
	WaitTime  Range // default [3, 5]
	Velocity  Range // default [1, 1.5] × 0.01
	MaxDist   Range // default [3, 3.5] × 0.01

	// Region defaults to the paper's Hong Kong bounding box.
	Region geo.BBox
}

// DefaultMeetup returns the Table IV bold defaults at the paper's Hong Kong
// extract size.
func DefaultMeetup() MeetupConfig {
	return MeetupConfig{
		Seed:            1,
		Workers:         3525,
		Tasks:           1282,
		Groups:          100,
		TagUniverse:     400,
		TagsPerGroup:    R(3, 8),
		GroupsPerWorker: R(1, 3),
		GroupSpread:     0.02,
		GroupTimeSpread: 10,
		DepSize:         R(0, 8),
		StartTime:       R(0, 200),
		WaitTime:        R(3, 5),
		Velocity:        R(1, 1.5).Scale(0.01),
		MaxDist:         R(3, 3.5).Scale(0.01),
		Region:          geo.HongKong,
	}
}

// Scale shrinks the population by factor f (0 < f ≤ 1), scaling the group
// count and tag universe along with it so that workers-per-tag and
// tasks-per-group densities are preserved.
func (c MeetupConfig) Scale(f float64) MeetupConfig {
	if f > 0 && f < 1 {
		c.Workers = max1(int(float64(c.Workers) * f))
		c.Tasks = max1(int(float64(c.Tasks) * f))
		c.Groups = max1(int(float64(c.Groups) * f))
		c.TagUniverse = max1(int(float64(c.TagUniverse) * f))
	}
	return c
}

// Validate reports configuration errors before generation.
func (c MeetupConfig) Validate() error {
	switch {
	case c.Workers < 0 || c.Tasks < 0:
		return fmt.Errorf("gen: negative population (%d workers, %d tasks)", c.Workers, c.Tasks)
	case c.Groups < 1:
		return fmt.Errorf("gen: need at least one group")
	case c.TagUniverse < 1:
		return fmt.Errorf("gen: tag universe %d < 1", c.TagUniverse)
	case c.TagsPerGroup.Lo < 1:
		return fmt.Errorf("gen: tags per group %v must start at ≥ 1", c.TagsPerGroup)
	case c.GroupsPerWorker.Lo < 1:
		return fmt.Errorf("gen: groups per worker %v must start at ≥ 1", c.GroupsPerWorker)
	case c.DepSize.Lo < 0:
		return fmt.Errorf("gen: dependency size range %v negative", c.DepSize)
	}
	return nil
}

// meetupGroup is one synthetic interest group.
type meetupGroup struct {
	center geo.Point
	tags   []model.Skill
}

// Meetup generates the real-data-substitute instance.
func Meetup(c MeetupConfig) (*model.Instance, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.Seed))
	in := &model.Instance{SkillUniverse: c.TagUniverse}

	// Groups: a centre inside the region and a tag set.
	groups := make([]meetupGroup, c.Groups)
	for gi := range groups {
		nTags := c.TagsPerGroup.SampleInt(rng)
		if nTags > c.TagUniverse {
			nTags = c.TagUniverse
		}
		var set model.SkillSet
		for set.Len() < nTags {
			set.Add(model.Skill(rng.Intn(c.TagUniverse)))
		}
		groups[gi] = meetupGroup{
			center: randPoint(rng, c.Region),
			tags:   set.Skills(),
		}
	}

	// Workers: the user's tags are the union of the tags of the groups the
	// user orbits; location near the first such group.
	for i := 0; i < c.Workers; i++ {
		nGroups := c.GroupsPerWorker.SampleInt(rng)
		var skills model.SkillSet
		home := -1
		for k := 0; k < nGroups; k++ {
			gi := rng.Intn(len(groups))
			if home < 0 {
				home = gi
			}
			for _, tag := range groups[gi].tags {
				skills.Add(tag)
			}
		}
		in.Workers = append(in.Workers, model.Worker{
			ID:       model.WorkerID(i),
			Loc:      jitter(rng, groups[home].center, c.GroupSpread*2, c.Region),
			Start:    c.StartTime.Sample(rng),
			Wait:     c.WaitTime.Sample(rng),
			Velocity: c.Velocity.Sample(rng),
			MaxDist:  c.MaxDist.Sample(rng),
			Skills:   skills,
		})
	}

	// Tasks: each task belongs to a group (one group = one paper "task
	// group"/event); a group's tasks are posted together — the group draws a
	// base time from StartTime and its tasks appear within GroupTimeSpread
	// of it, which is what lets dependencies bind within batches. Task IDs
	// follow creation (= appearance) order, as in the synthetic generator,
	// so intra-group dependencies always appear before dependants.
	groupStart := make([]float64, len(groups))
	for gi := range groupStart {
		groupStart[gi] = c.StartTime.Sample(rng)
	}
	type slot struct {
		group int
		start float64
	}
	slots := make([]slot, c.Tasks)
	for i := range slots {
		gi := rng.Intn(len(groups))
		slots[i] = slot{group: gi, start: groupStart[gi] + rng.Float64()*c.GroupTimeSpread}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].start < slots[b].start })
	byGroup := make([][]model.TaskID, len(groups))
	deps := newDepGrower(rng, c.Tasks)
	for i, sl := range slots {
		g := &groups[sl.group]
		t := model.Task{
			ID:       model.TaskID(i),
			Loc:      jitter(rng, g.center, c.GroupSpread, c.Region),
			Start:    sl.start,
			Wait:     c.WaitTime.Sample(rng),
			Requires: g.tags[rng.Intn(len(g.tags))],
		}
		t.Deps = deps.grow(in.Tasks, byGroup[sl.group], c.DepSize)
		in.Tasks = append(in.Tasks, t)
		byGroup[sl.group] = append(byGroup[sl.group], t.ID)
	}

	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("gen: generated instance invalid: %w", err)
	}
	return in, nil
}

// jitter draws a point normally distributed around centre, clamped to the
// region.
func jitter(rng *rand.Rand, center geo.Point, sigma float64, box geo.BBox) geo.Point {
	p := geo.Pt(center.X+rng.NormFloat64()*sigma, center.Y+rng.NormFloat64()*sigma)
	if p.X < box.Min.X {
		p.X = box.Min.X
	}
	if p.X > box.Max.X {
		p.X = box.Max.X
	}
	if p.Y < box.Min.Y {
		p.Y = box.Min.Y
	}
	if p.Y > box.Max.Y {
		p.Y = box.Max.Y
	}
	return p
}
