package compress

// CheckDecoders exposes checkDecoders to the external tests that build
// their inputs with internal/gen (which imports this package via graph).
var CheckDecoders = checkDecoders
