package chaos

// Posted and Completed report the verb lifecycle counts the checker saw.
func (c *Checker) Posted() uint64    { return c.posted }
func (c *Checker) Completed() uint64 { return c.done }

// Pins reports how many duplicate-READ payload pins the checker holds.
func (c *Checker) Pins() int { return len(c.reads) }
