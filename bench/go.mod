// The benchmark is a module of its own so that the repository's tier-1
// commands (go build ./... && go test ./...) never build or run it; the
// module path keeps it inside rapidware's import tree, which is what lets it
// use rapidware/internal/... through the replace below.
module rapidware/bench

go 1.24

require rapidware v0.0.0

replace rapidware => ../
