package model

import (
	"fmt"

	"dasc/internal/dag"
	"dasc/internal/geo"
)

// Instance bundles the worker set W and task set T of one DA-SC problem,
// together with the distance function the platform uses. It is the unit the
// generators produce, the dataset codec serialises and the allocators and
// simulator consume.
type Instance struct {
	Workers []Worker
	Tasks   []Task
	// Dist is the travel metric; nil means geo.Euclidean, the paper's
	// default.
	Dist geo.DistanceFunc
	// SkillUniverse is r = |Ψ|, informational only.
	SkillUniverse int
}

// Distance returns the configured metric, defaulting to Euclidean.
func (in *Instance) Distance() geo.DistanceFunc {
	if in.Dist == nil {
		return geo.Euclidean
	}
	return in.Dist
}

// Worker returns the worker with the given ID, or nil when out of range.
func (in *Instance) Worker(id WorkerID) *Worker {
	if id < 0 || int(id) >= len(in.Workers) {
		return nil
	}
	return &in.Workers[id]
}

// Task returns the task with the given ID, or nil when out of range.
func (in *Instance) Task(id TaskID) *Task {
	if id < 0 || int(id) >= len(in.Tasks) {
		return nil
	}
	return &in.Tasks[id]
}

// DepGraph builds the dependency DAG over the instance's tasks.
func (in *Instance) DepGraph() (*dag.Graph, error) {
	g := dag.New(len(in.Tasks))
	for i := range in.Tasks {
		t := &in.Tasks[i]
		for _, d := range t.Deps {
			if in.Task(d) == nil {
				return nil, fmt.Errorf("model: task t%d depends on unknown task t%d", t.ID, d)
			}
			if err := g.AddDep(int(t.ID), int(d)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Validate checks structural sanity: consistent IDs, non-negative temporal
// and spatial parameters, known dependency targets, and acyclic (in fact
// transitively closed) dependencies. Generators and the dataset loader call
// it before handing an instance to the allocators.
func (in *Instance) Validate() error {
	for i := range in.Workers {
		w := &in.Workers[i]
		if int(w.ID) != i {
			return fmt.Errorf("model: worker at index %d has ID %d", i, w.ID)
		}
		if w.Wait < 0 || w.Velocity < 0 || w.MaxDist < 0 {
			return fmt.Errorf("model: worker w%d has negative parameter", w.ID)
		}
		if w.Skills.IsEmpty() {
			return fmt.Errorf("model: worker w%d has no skills", w.ID)
		}
	}
	// seen[d] == i+1 marks dependency t_d as already listed by task i: one
	// stamp slice for the whole duplicate check, never cleared.
	seen := make([]int32, len(in.Tasks))
	// ordered stays true while every dependency names a lower ID than its
	// owner, the order the generators and the server build.
	ordered := true
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if int(t.ID) != i {
			return fmt.Errorf("model: task at index %d has ID %d", i, t.ID)
		}
		if t.Wait < 0 {
			return fmt.Errorf("model: task t%d has negative waiting time", t.ID)
		}
		if t.Requires < 0 {
			return fmt.Errorf("model: task t%d has negative required skill", t.ID)
		}
		for _, d := range t.Deps {
			if in.Task(d) == nil {
				return fmt.Errorf("model: task t%d depends on unknown task t%d", t.ID, d)
			}
			if d == t.ID {
				return fmt.Errorf("model: task t%d depends on itself", t.ID)
			}
			if seen[d] == int32(i+1) {
				return fmt.Errorf("model: task t%d lists dependency t%d twice", t.ID, d)
			}
			seen[d] = int32(i + 1)
			ordered = ordered && d < t.ID
		}
	}
	// A graph whose every edge points to a lower ID has no cycle.
	if ordered {
		return nil
	}
	// Every list now names known tasks other than its owner, once each, and
	// task IDs are positions, so the lists are exactly the adjacency
	// DepGraph would build: search them in place.
	if cyc := dag.FindCycleIn(len(in.Tasks), func(u int) []TaskID { return in.Tasks[u].Deps }); cyc != nil {
		return fmt.Errorf("model: dependency cycle %v: %w", cyc, dag.ErrCycle)
	}
	return nil
}

// Stats summarises an instance for logging and reports.
type Stats struct {
	Workers, Tasks     int
	Edges              int
	RootTasks          int // tasks with no dependencies
	MaxDepSetSize      int
	MeanDepSetSize     float64
	MaxWorkerSkills    int
	CriticalPathLength int
}

// ComputeStats derives summary statistics; dependency-graph figures are zero
// when the dependencies are cyclic.
func (in *Instance) ComputeStats() Stats {
	s := Stats{Workers: len(in.Workers), Tasks: len(in.Tasks)}
	totalDeps := 0
	for i := range in.Tasks {
		n := len(in.Tasks[i].Deps)
		totalDeps += n
		if n == 0 {
			s.RootTasks++
		}
		if n > s.MaxDepSetSize {
			s.MaxDepSetSize = n
		}
	}
	s.Edges = totalDeps
	if len(in.Tasks) > 0 {
		s.MeanDepSetSize = float64(totalDeps) / float64(len(in.Tasks))
	}
	for i := range in.Workers {
		if n := in.Workers[i].Skills.Len(); n > s.MaxWorkerSkills {
			s.MaxWorkerSkills = n
		}
	}
	if g, err := in.DepGraph(); err == nil {
		if cp, err := g.CriticalPathLen(); err == nil {
			s.CriticalPathLength = cp
		}
	}
	return s
}
