package xmltree

// CheckMatchesReference runs every differential oracle of oracle_test.go
// on one document. It is exported for the corpus tests of package
// xmltree_test, which import packages that depend on this one.
var CheckMatchesReference = checkMatchesReference
