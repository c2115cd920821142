package pcie

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }
