package daemon

// The HTTP front-end is tenant.Server, which imports this package, so the
// tests that serve an engine over HTTP (server_test.go, e2e_test.go) are
// an external test package. These are the internal test helpers they use.
var (
	TestEngineConfig = testEngineConfig
	TestCluster      = testCluster
	GratisTask       = gratisTask
	TaskNDJSON       = taskNDJSON
	Within           = within
)
