package core

import (
	"cmp"
	"slices"

	"dasc/internal/model"
)

// Population is the candidate set of a batch loop over a growing registry:
// the registration indexes of the workers and tasks that may still be
// presented to some batch. An entry waits in an arrival queue, ordered by
// (due time, ID), until it is due: for a worker the earlier of its start
// and its expiry, for a task the earlier of its start and its deadline.
// Once due it joins a walk list, which is kept in ID order.
//
// A platform admits what was registered since the last batch; every entry
// due by then moves from its queue into its walk list. The walk visits only
// the walk lists, dropping for good every entry that can never qualify
// again (an expired worker, a task that was consumed or whose deadline
// passed, and for a dependency-aware allocator a task retired because a
// dependency left the population unassigned). Batch time never goes
// backwards, so such an entry would be skipped by every later batch anyway,
// and an entry that is not due yet would be skipped without effect by
// every batch before its due time. A batch therefore costs O(due entries +
// arrivals), plus, for the registrations not due when admitted, a sort and
// a merge into the queue that moves only the queued entries due after the
// earliest of them; entries that start later are never visited.
//
// The walk visits the survivors in ID order, so the population a batch
// sees is exactly the one a full registry scan would build, in the same
// order.
type Population struct {
	liveW []int32  // due workers not yet known to be gone for good
	openT []int32  // due tasks not yet known to be gone for good
	waitW arrivals // workers not yet due
	waitT arrivals // tasks not yet due
	nW    int      // workers admitted so far
	nT    int      // tasks admitted so far
}

// Admit admits the workers [admitted, nWorkers) and tasks [admitted,
// nTasks) of append-only registries, then moves every entry due at now
// into its walk list. workerDue and taskDue give an entry's due time; a
// NaN due time counts as due. sc is the admission's working memory.
func (p *Population) Admit(nWorkers, nTasks int, now float64, workerDue, taskDue func(i int) float64, sc *admitScratch) {
	p.waitT.arrive(&p.openT, p.nT, nTasks, now, taskDue, sc)
	p.nT = max(p.nT, nTasks)
	p.waitW.arrive(&p.liveW, p.nW, nWorkers, now, workerDue, sc)
	p.nW = max(p.nW, nWorkers)
}

// admitScratch is Admit's working memory: the entries falling due, and an
// admission's new entries that are not due yet. A kernel keeps it in its
// step arena.
type admitScratch struct {
	due   []int32
	fresh []waiting
}

// Wake moves task i from its queue into the walk list, so the next walk
// visits it at its place in ID order. The kernel calls it for a task
// dispatched before it was due: the walk must drop that task, and mark it
// gone when botched, at the same batch a full registry scan would. A task
// that is not queued is left as it is.
func (p *Population) Wake(i int) {
	q := &p.waitT
	for k := q.head; k < len(q.q); k++ {
		if q.q[k].id == int32(i) {
			q.q = slices.Delete(q.q, k, k+1)
			p.openT = mergeSorted(p.openT, []int32{int32(i)}, cmp.Compare[int32])
			return
		}
	}
}

// Workers calls keep with every due candidate worker index in ID order and
// drops the workers for which it returns false.
func (p *Population) Workers(keep func(i int) bool) { p.liveW = compact(p.liveW, keep) }

// Tasks calls keep with every due candidate task index in ID order and
// drops the tasks for which it returns false.
func (p *Population) Tasks(keep func(i int) bool) { p.openT = compact(p.openT, keep) }

// Len reports how many workers and tasks are still candidates, queued ones
// included.
func (p *Population) Len() (workers, tasks int) {
	return len(p.liveW) + p.waitW.len(), len(p.openT) + p.waitT.len()
}

// compact keeps, in place and in order, the entries of list that keep
// accepts.
func compact(list []int32, keep func(i int) bool) []int32 {
	out := list[:0]
	for _, i := range list {
		if keep(int(i)) {
			out = append(out, i)
		}
	}
	return out
}

// mergeSorted merges add into list, both ascending under cmp, from the
// back, so it moves only the entries of list above add's smallest.
func mergeSorted[T any](list, add []T, cmp func(a, b T) int) []T {
	i := len(list) - 1
	list = slices.Grow(list, len(add))[:len(list)+len(add)]
	for k, j := len(list)-1, len(add)-1; j >= 0; k-- {
		if i >= 0 && cmp(add[j], list[i]) < 0 {
			list[k] = list[i]
			i--
		} else {
			list[k] = add[j]
			j--
		}
	}
	return list
}

// waiting is a queued entry: its registration index and due time.
type waiting struct {
	due float64
	id  int32
}

// arrivals is the queue of the entries not yet due: q[head:], ascending
// by (due time, ID). Every due time in it is a number, never NaN, so the
// order is total.
type arrivals struct {
	q    []waiting
	head int
}

func (a *arrivals) len() int { return len(a.q) - a.head }

// arrive queues the entries [from, to) that are not due at now and merges
// every due entry — the queue's and the rest of [from, to) — into *list in
// ID order.
func (a *arrivals) arrive(list *[]int32, from, to int, now float64, dueAt func(i int) float64, sc *admitScratch) {
	due := sc.due[:0]
	for ; a.head < len(a.q) && a.q[a.head].due <= now; a.head++ {
		due = append(due, a.q[a.head].id)
	}
	if a.head > len(a.q)/2 {
		a.q = a.q[:copy(a.q, a.q[a.head:])]
		a.head = 0
	}
	// The queue pops in due order; entries registered since are above
	// every queued ID, so only the popped part needs sorting.
	slices.Sort(due)
	fresh := sc.fresh[:0]
	for i := from; i < to; i++ {
		if d := dueAt(i); d > now {
			fresh = append(fresh, waiting{due: d, id: int32(i)})
		} else {
			due = append(due, int32(i))
		}
	}
	slices.SortFunc(fresh, cmpWaiting)
	a.q = mergeSorted(a.q, fresh, cmpWaiting)
	*list = mergeSorted(*list, due, cmp.Compare[int32])
	sc.due, sc.fresh = due, fresh
}

// cmpWaiting orders queued entries by due time, then by ID.
func cmpWaiting(a, b waiting) int {
	if c := cmp.Compare(a.due, b.due); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// skillHolders indexes a kernel's workers by skill: the list of skill sk
// holds, ascending, every registered worker holding sk that was not yet
// seen expired. It is the inverted list a batch with few task skills reads
// its candidate workers from (the skill-first build, newBatchIndexN)
// instead of scanning every batch worker's skill set.
//
// A worker joins its lists when it is registered, so the lists stay in ID
// order by appending; a reader skips the workers outside its batch (not
// started yet, or busy) by Batch.WorkerIndex. An expired worker leaves a
// list lazily, when the list is read after its expiry; the lists no batch
// reads are swept whole once the entries pass twice what the last sweep
// kept, so they hold at most about twice the unexpired entries of that
// sweep, at amortised O(1) per registered skill.
type skillHolders struct {
	// slot[sk] is 1 + the index of skill sk's list in lists, or 0 when no
	// registered worker holds sk: 4 bytes per skill up to the highest one
	// held, and a list only for the skills some worker holds.
	slot   []int32
	lists  [][]int32
	skills []model.Skill // one worker's skills
	nW     int           // workers registered so far
	now    float64       // the time of the last walk
	used   int           // Σ list lengths
	swept  int           // used after the last sweep
}

// register records the time of the walk and adds the workers registered
// since the last call.
func (h *skillHolders) register(in *model.Instance, now float64) {
	h.now = now
	for ; h.nW < len(in.Workers); h.nW++ {
		h.skills = in.Workers[h.nW].Skills.AppendTo(h.skills[:0])
		for _, sk := range h.skills {
			if int(sk) >= len(h.slot) {
				h.slot = append(h.slot, make([]int32, int(sk)+1-len(h.slot))...)
			}
			if h.slot[sk] == 0 {
				h.lists = append(h.lists, nil)
				h.slot[sk] = int32(len(h.lists))
			}
			l := &h.lists[h.slot[sk]-1]
			*l = append(*l, int32(h.nW))
		}
		h.used += len(h.skills)
	}
	if h.used > 2*h.swept+1024 {
		for li := range h.lists {
			h.compact(in, li)
		}
		h.swept = h.used
	}
}

// of returns the unexpired holders of sk, ascending by ID, dropping the
// expired ones from the list. The slice is the index's own.
func (h *skillHolders) of(in *model.Instance, sk model.Skill) []int32 {
	if int(sk) >= len(h.slot) || h.slot[sk] == 0 {
		return nil
	}
	return h.compact(in, int(h.slot[sk]-1))
}

// compact drops from list li the workers expired at the last walk.
func (h *skillHolders) compact(in *model.Instance, li int) []int32 {
	l := h.lists[li]
	kept := l[:0]
	for _, id := range l {
		if !(h.now > in.Workers[id].Expiry()) {
			kept = append(kept, id)
		}
	}
	h.used -= len(l) - len(kept)
	h.lists[li] = kept
	return kept
}

// fewer reports whether the holders of the skills in mask number fewer
// than n, counting a worker once per skill it holds.
func (h *skillHolders) fewer(in *model.Instance, mask model.SkillSet, n int) bool {
	total := 0
	for sk := mask.NextCommon(mask, 0); sk >= 0; sk = mask.NextCommon(mask, sk+1) {
		if total += len(h.of(in, sk)); total >= n {
			return false
		}
	}
	return true
}
