package kvstore

// Live reports blocks currently allocated and not freed.
func (a *Arena) Live() int { return a.live }

// Stats returns a snapshot of allocator counters.
func (a *Arena) Stats() ArenaStats { return a.stats }

// Stats returns a snapshot of allocator counters.
func (f *FixedArena) Stats() ArenaStats { return f.stats }
