"""Ring state, parameters, scheduler and the step loop."""
