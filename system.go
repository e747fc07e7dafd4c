package tinyevm

import (
	"fmt"

	"tinyevm/internal/chain"
	"tinyevm/internal/device"
	"tinyevm/internal/protocol"
	"tinyevm/internal/radio"
	"tinyevm/internal/types"
)

// Node is one complete TinyEVM node: an OpenMote-B-class device running
// the customized EVM with its local template copy, joined to a TSCH
// network and able to settle on the main chain.
type Node struct {
	// Party carries the protocol state (channels, side-chain log).
	*protocol.Party
	// name identifies the node.
	name string
}

// Name returns the node's human-readable name.
func (n *Node) Name() string { return n.name }

// DeployContract deploys arbitrary EVM init code on the node's TinyEVM —
// the operation behind the paper's 7,000-contract experiment.
func (n *Node) DeployContract(initCode []byte) DeployResult {
	return n.Dev.Deploy(initCode, 0)
}

// CallContract executes a deployed contract on the node's TinyEVM.
func (n *Node) CallContract(addr Address, input []byte, value uint64) CallResult {
	return n.Dev.Call(addr, input, value)
}

// RegisterSensor installs a sensor/actuator handler on the node's bus,
// reachable from contract code through the IoT opcode 0x0C.
func (n *Node) RegisterSensor(id uint64, fn SensorFunc) {
	n.Dev.Sensors.Register(id, fn)
}

// EnergyReport returns the node's Table IV style energy report since the
// last measurement reset.
func (n *Node) EnergyReport() EnergyReport {
	return n.Dev.EnergyReport()
}

// System is a full TinyEVM deployment: a simulated main chain hosting the
// on-chain template, a TSCH network, and the participating nodes.
type System struct {
	// Chain is the simulated main chain (phase 1 and 3 of the paper's
	// transaction lifecycle).
	Chain *chain.Chain
	// Template is the on-chain template contract.
	Template *protocol.Template
	// Network is the TSCH broadcast domain.
	Network *radio.Network

	provider types.Address
	cfg      Config
	nodes    map[string]*Node
}

// Config parametrizes a System.
type Config struct {
	// RadioSeed fixes the radio loss process.
	RadioSeed int64
	// RadioLossRate injects per-frame loss (0 disables).
	RadioLossRate float64
	// ChallengePeriod is the template's challenge window in blocks.
	ChallengePeriod uint64
	// ProviderFunds and NodeFunds are the initial chain balances.
	ProviderFunds uint64
	NodeFunds     uint64
}

// DefaultConfig returns the standard experiment configuration. The
// provider pays the gas of every commit, exit and settle of every
// channel it serves for as long as the service runs (≈ 75k per
// session), so it starts with enough for millions of sessions; a node
// pays for its own deposits only.
func DefaultConfig() Config {
	return Config{
		RadioSeed:       1,
		ChallengePeriod: 10,
		ProviderFunds:   1 << 40,
		NodeFunds:       100_000_000,
	}
}

// NewSystem creates a chain + network + template deployment whose
// provider node (the payment receiver) has the given name; the provider
// is created immediately and owns the on-chain template. The returned
// deployment is the original lockstep API: single-threaded, with manual
// message pumping (AcceptChannel / ReceivePayment / AcceptClose).
// NewService builds on it.
func NewSystem(cfg Config, providerName string) (*System, *Node, error) {
	radioCfg := radio.DefaultConfig()
	radioCfg.LossRate = cfg.RadioLossRate

	s := &System{
		Chain:   chain.New(),
		Network: radio.NewNetwork(radioCfg, cfg.RadioSeed),
		cfg:     cfg,
		nodes:   make(map[string]*Node),
	}

	providerDev := device.New(providerName)
	s.provider = providerDev.Address()
	s.Template = protocol.InstallTemplate(s.Chain, s.provider, cfg.ChallengePeriod)
	s.Chain.Fund(s.provider, cfg.ProviderFunds)

	provider, err := s.join(providerDev)
	if err != nil {
		return nil, nil, err
	}
	return s, provider, nil
}

// AddNode creates and joins a new node funded per the system's config.
func (s *System) AddNode(name string) (*Node, error) {
	if _, exists := s.nodes[name]; exists {
		return nil, fmt.Errorf("tinyevm: node %q already exists", name)
	}
	dev := device.New(name)
	s.Chain.Fund(dev.Address(), s.cfg.NodeFunds)
	return s.join(dev)
}

// RestoreNode rejoins a checkpointed node: the device is recreated
// with its deterministic identity and the protocol party is rebuilt
// without re-deploying contracts or re-funding the chain account —
// chain balances return with the chain snapshot. The node starts with
// an empty device state, channel table and log; the caller pours the
// checkpointed ones in (neither joining the network nor building the
// party reads them). Nodes must be restored in their original join
// order; the TSCH join order determines radio scheduling. The device's
// virtual clock and Energest counters restart at zero (every protocol
// hash and signature is time-free, so replay is unaffected).
func (s *System) RestoreNode(name string, localTemplate types.Address) (*Node, error) {
	if _, exists := s.nodes[name]; exists {
		return nil, fmt.Errorf("tinyevm: node %q already exists", name)
	}
	dev := device.New(name)
	ep := s.Network.Join(dev)
	party := protocol.NewRestoredParty(dev, ep, s.Template.Addr, localTemplate)
	n := &Node{Party: party, name: name}
	s.nodes[name] = n
	return n, nil
}

func (s *System) join(dev *device.Device) (*Node, error) {
	ep := s.Network.Join(dev)
	party, err := protocol.NewParty(dev, ep, s.Template.Addr, s.provider)
	if err != nil {
		return nil, fmt.Errorf("tinyevm: joining %s: %w", dev.Name, err)
	}
	n := &Node{Party: party, name: dev.Name}
	s.nodes[dev.Name] = n
	return n, nil
}

// Provider returns the service-provider address.
func (s *System) Provider() Address { return s.provider }

// mineUntil advances the chain past the given block number.
func (s *System) mineUntil(block uint64) {
	for s.Chain.Head().Number <= block {
		s.Chain.MineBlock()
	}
}

// RunChallengePeriod advances the chain past the active exit deadline.
func (s *System) RunChallengePeriod() error {
	exit, ok := s.Template.Exit()
	if !ok {
		return protocol.ErrNoExit
	}
	s.mineUntil(exit.Deadline)
	return nil
}
