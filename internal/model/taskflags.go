package model

// TaskFlags is a dense set of task IDs: one flag per ID, indexed by the ID
// itself. Task IDs are instance positions (Instance.Task and Validate rely on
// that), so a slice replaces a map[TaskID]bool wherever a set of tasks is
// probed once per dependency entry — a batch's satisfied set and the
// platforms' assigned books. The zero value is the empty set.
type TaskFlags []bool

// Has reports whether id is in the set. IDs outside the slice — negative or
// beyond the highest ID ever set — are not.
func (f TaskFlags) Has(id TaskID) bool {
	return id >= 0 && int(id) < len(f) && f[id]
}

// Set adds id to the set, growing the slice to cover it. id must be
// non-negative.
func (f *TaskFlags) Set(id TaskID) {
	if n := int(id) + 1; n > len(*f) {
		*f = append(*f, make([]bool, n-len(*f))...)
	}
	(*f)[id] = true
}
