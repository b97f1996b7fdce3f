"""Hand-written autodiff (`tensor`, `ops`), layers, models and checkpoints."""
