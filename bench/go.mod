// The benchmark harness is its own module so the root module's build and
// test commands do not depend on it. Its path sits under "repro/", which is
// what lets it import repro/internal/... through the replace below.
module repro/bench

go 1.22

require repro v0.0.0

replace repro => ../
