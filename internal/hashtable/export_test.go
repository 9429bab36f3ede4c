package hashtable

// DrainCSROracle exports the replaced grouped drain to the external tests.
var DrainCSROracle = drainCSROracle
