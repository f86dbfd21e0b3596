"""Detection + generation network, training, and model persistence."""
