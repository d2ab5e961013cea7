package core

// Population is the candidate set of a batch loop over a growing registry:
// the registration-order indexes of the workers and tasks that may still be
// presented to some batch. A platform admits what was registered since the
// last batch, then walks only the candidates, dropping for good every entry
// that can never qualify again (an expired worker, a task that was consumed
// or whose deadline passed, and for a dependency-aware allocator a task
// retired because a dependency left the population unassigned). Batch time
// never goes backwards, so such an entry would be skipped by every later
// batch anyway; dropping it keeps the walk O(live population + arrivals)
// instead of O(registry).
//
// The walk visits the survivors in registration order, so the population a
// batch sees is exactly the one a full registry scan would build, in the
// same order.
type Population struct {
	liveW []int32 // workers not yet known to be gone for good
	openT []int32 // tasks not yet known to be gone for good
	nW    int     // workers admitted so far
	nT    int     // tasks admitted so far
}

// Admit appends the workers [admitted, nWorkers) and tasks
// [admitted, nTasks) of append-only registries.
func (p *Population) Admit(nWorkers, nTasks int) {
	for ; p.nW < nWorkers; p.nW++ {
		p.liveW = append(p.liveW, int32(p.nW))
	}
	for ; p.nT < nTasks; p.nT++ {
		p.openT = append(p.openT, int32(p.nT))
	}
}

// Workers calls keep with every candidate worker index in registration
// order and drops the workers for which it returns false.
func (p *Population) Workers(keep func(i int) bool) { p.liveW = compact(p.liveW, keep) }

// Tasks calls keep with every candidate task index in registration order
// and drops the tasks for which it returns false.
func (p *Population) Tasks(keep func(i int) bool) { p.openT = compact(p.openT, keep) }

// Len reports how many workers and tasks are still candidates.
func (p *Population) Len() (workers, tasks int) { return len(p.liveW), len(p.openT) }

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
