package device

import (
	"errors"
	"fmt"
	"sync"

	"tinyevm/internal/evm"
)

// Well-known sensor and actuator identifiers used by the examples and the
// smart-parking scenario. Identifiers are free-form; the SENSOR opcode's
// first operand selects one of them. By convention, identifiers below
// 0x80 are sensors (reads) and identifiers at or above 0x80 are
// actuators (writes; the param operand is the set-point).
const (
	// SensorTemperature reads the ambient temperature in centi-degrees C.
	SensorTemperature uint64 = 0x01
	// SensorOccupancy reads parking-spot occupancy (0 or 1).
	SensorOccupancy uint64 = 0x02
	// SensorTime reads the device's local logical time in seconds.
	SensorTime uint64 = 0x03
	// SensorDistance reads a LIDAR-ish range in centimeters.
	SensorDistance uint64 = 0x04
	// SensorBattery reads the remaining battery in per-mille.
	SensorBattery uint64 = 0x05

	// ActuatorBarrier raises (1) or lowers (0) a parking barrier.
	ActuatorBarrier uint64 = 0x80
	// ActuatorLED sets the indicator LED color.
	ActuatorLED uint64 = 0x81
)

// ErrUnknownSensor is returned by the bus for unregistered identifiers.
var ErrUnknownSensor = errors.New("device: unknown sensor or actuator id")

// SensorFunc produces a reading given the opcode's parameter operand.
type SensorFunc func(param uint64) (uint64, error)

// Sensors is the device's sensor/actuator bus backing the IoT opcode
// (0x0C). It implements evm.SensorBus.
//
// Sensors is safe for concurrent registration and sensing; devices on
// different goroutines may share stimulus sources in tests.
type Sensors struct {
	mu       sync.Mutex
	handlers map[uint64]SensorFunc
}

var _ evm.SensorBus = (*Sensors)(nil)

// NewSensors returns an empty bus.
func NewSensors() *Sensors {
	return &Sensors{handlers: make(map[uint64]SensorFunc)}
}

// Register installs a handler for the given id, replacing any previous
// one.
func (s *Sensors) Register(id uint64, fn SensorFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[id] = fn
}

// RegisterValue installs a fixed-value sensor.
func (s *Sensors) RegisterValue(id uint64, value uint64) {
	s.Register(id, func(uint64) (uint64, error) { return value, nil })
}

// Sense implements evm.SensorBus.
func (s *Sensors) Sense(id, param uint64) (uint64, error) {
	s.mu.Lock()
	fn, ok := s.handlers[id]
	s.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("%w: 0x%x", ErrUnknownSensor, id)
	}
	return fn(param)
}
