package releasetags

// Base has no build constraint.
const Base = 1
