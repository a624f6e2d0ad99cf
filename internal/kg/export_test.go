package kg

// TransitionGraph exposes the uniform random test graph to the external
// benchmarks.
var TransitionGraph = transitionGraph
