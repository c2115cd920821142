package chaos

// Posted and Completed report the verb lifecycle counts the checker saw.
func (c *Checker) Posted() uint64    { return c.posted }
func (c *Checker) Completed() uint64 { return c.done }
