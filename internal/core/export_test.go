package core

// BuildTestEngine gives the external session tests (session_test.go,
// package core_test) the package's test engine.
var BuildTestEngine = buildEngine
