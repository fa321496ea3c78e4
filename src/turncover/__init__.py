"""Turn-minimizing multi-robot coverage path planning on grid maps."""
