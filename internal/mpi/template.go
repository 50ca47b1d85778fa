package mpi

// TemplateStore holds nothing: every timing-independent point is compiled
// on its own (Runner.Compile).
//
// Deprecated: kept only so existing callers of
// experiment.MeasureComposedClass still compile; it is ignored there.
type TemplateStore struct{}

// NewTemplateStore returns an empty store.
//
// Deprecated: see TemplateStore.
func NewTemplateStore() *TemplateStore { return &TemplateStore{} }
