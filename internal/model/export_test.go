package model

// Test-only exports for the external model_test package, which can
// import the generators (they import model) without an import cycle.
var (
	ReadJSONReference = readJSONReference
	GraphDiff         = graphDiff
)
