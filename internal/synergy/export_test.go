package synergy

// Access for the package's external tests.

// SetAfterPhase installs the afterPhase hook: f runs after each barrier of a
// marked update, with PhaseMarked, PhaseUpdated or PhaseUnmarked; nil removes
// it.
func (sys *System) SetAfterPhase(f func(phase int) error) { sys.afterPhase = f }

// The phases SetAfterPhase's hook reports, in order.
const (
	PhaseMarked   = phaseMarked
	PhaseUpdated  = phaseUpdated
	PhaseUnmarked = phaseUnmarked
)

// FanoutSystem is the fan-out fixture (fanoutSystem).
var FanoutSystem = fanoutSystem
