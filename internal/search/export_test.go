package search

// InitialPrefix exposes initialPrefix to the external tests, which probe
// the walk at the edge of the prefix it orders first.
const InitialPrefix = initialPrefix
