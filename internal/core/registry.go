package core

// Suite registry: the kernel table is built exactly once (sync.Once)
// from the Table III spec lists and then served from a map, so ByName
// is O(1) instead of rebuilding and scanning a slice per call. External
// kernels enter through Register with the same shape validation the
// built-ins pass, appended after the curated suite so Table III order —
// and therefore every rendered table and the JSON export byte stream —
// is unchanged by the registry's existence.

import (
	"fmt"
	"strings"
	"sync"
)

var suiteReg struct {
	once   sync.Once
	mu     sync.RWMutex
	order  []string
	byName map[string]Spec
}

// ensureSuite builds the registry from the curated spec lists once per
// process. The built-ins are code, not user input: a malformed one is a
// programming error and panics at first use.
func ensureSuite() {
	suiteReg.once.Do(func() {
		suiteReg.byName = make(map[string]Spec)
		var builtins []Spec
		builtins = append(builtins, perceptionSpecs()...)
		builtins = append(builtins, estimationSpecs()...)
		builtins = append(builtins, controlSpecs()...)
		for _, s := range builtins {
			if err := registerLocked(s); err != nil {
				panic(fmt.Sprintf("core: built-in suite: %v", err))
			}
		}
	})
}

// validateSpec is the shape check every kernel passes before admission.
func validateSpec(s Spec) error {
	if strings.TrimSpace(s.Name) == "" {
		return fmt.Errorf("spec has no name")
	}
	switch s.Stage {
	case Perception, Estimation, Control:
	default:
		return fmt.Errorf("spec %q: unknown stage %q (want P, S, or C)", s.Name, s.Stage)
	}
	if s.Factory == nil {
		return fmt.Errorf("spec %q has no Factory", s.Name)
	}
	if s.FLOPs < 0 {
		return fmt.Errorf("spec %q: negative claimed FLOPs %d", s.Name, s.FLOPs)
	}
	if s.MinSRAMKB < 0 {
		return fmt.Errorf("spec %q: negative MinSRAMKB %d", s.Name, s.MinSRAMKB)
	}
	return nil
}

// registerLocked validates and admits one spec; callers hold
// suiteReg.mu or run inside the once.
func registerLocked(s Spec) error {
	if err := validateSpec(s); err != nil {
		return err
	}
	if _, dup := suiteReg.byName[s.Name]; dup {
		return fmt.Errorf("kernel %q already registered", s.Name)
	}
	suiteReg.byName[s.Name] = s
	suiteReg.order = append(suiteReg.order, s.Name)
	return nil
}

// Register adds an external kernel to the suite with the same
// validation the built-ins pass. Registered kernels appear after the
// curated Table III rows in Suite() order and characterize through the
// identical sweep path — the framework's extensibility contract. A
// registered kernel's prepare runs a warm-up Solve before its profiled
// ROI Solve, even when s copies a built-in's Spec: the caller's Factory
// carries no promise that its second Solve repeats the first.
func Register(s Spec) error {
	s.oneSolve = false
	ensureSuite()
	suiteReg.mu.Lock()
	defer suiteReg.mu.Unlock()
	if err := registerLocked(s); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Suite returns all kernels — the curated suite in Table III order,
// then registered externals in registration order. The slice is a
// fresh copy; callers may reorder or filter it freely.
func Suite() []Spec {
	ensureSuite()
	suiteReg.mu.RLock()
	defer suiteReg.mu.RUnlock()
	out := make([]Spec, 0, len(suiteReg.order))
	for _, name := range suiteReg.order {
		out = append(out, suiteReg.byName[name])
	}
	return out
}

// ByName finds a spec — an O(1) registry lookup.
func ByName(name string) (Spec, bool) {
	ensureSuite()
	suiteReg.mu.RLock()
	defer suiteReg.mu.RUnlock()
	s, ok := suiteReg.byName[name]
	return s, ok
}
