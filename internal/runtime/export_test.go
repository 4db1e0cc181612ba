package runtime

// StallLeader exposes stallLeader (admission_test.go) to the external test
// package, whose rejection table imports internal/workload — which imports
// this package, so the table cannot live inside it.
var StallLeader = stallLeader
