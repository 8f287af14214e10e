"""A from-scratch Fabric-v1.0-style permissioned blockchain.

Execute-order-validate pipeline with an ordering service, block-level
MVCC key-value-store conflicts, per-transaction peer voting under a
configurable consensus policy, and a post-commit ledger-synchronisation
stage — the two stages whose sum the paper calls *event validation
latency* (§6).
"""

from .block import Block, BlockHeader, make_genesis_block
from .client import BlockchainClient, PendingTx
from .config import FabricConfig
from .contracts import (
    Contract,
    ContractError,
    InvocationContext,
    StateView,
    execute_transaction,
    nonce_key,
)
from .crypto import (
    KeyPair,
    PrivateKey,
    PublicKey,
    canonical_digest,
    generate_keypair,
    merkle_root,
    sha256_hex,
    verify_batch,
)
from .execution import (
    ValidationExecutor,
    clear_execution_cache,
    execution_stats,
    reset_execution_stats,
)
from .identity import (
    Certificate,
    CertificateAuthority,
    Identity,
    MembershipProvider,
)
from .ledger import Ledger, LedgerError, TxExecution
from .messages import (
    DeliverBlock,
    QueryTxStatus,
    SubmitTx,
    SyncHashMsg,
    TxStatusReply,
    VoteMsg,
)
from .network import BlockchainNetwork
from .ordering import OrderingService
from .peer import Peer
from .policy import MAJORITY, ConsensusPolicy, PolicyError, parse_policy
from .sharding import session_shard_key, shard_index_for_key
from .state import Version, VersionedValue, WorldState
from .swaps import (
    CrossShardSwap,
    ShardAssetContract,
    SwapCoordinator,
    SwapState,
    check_conservation_summaries,
)
from .transaction import (
    Proposal,
    RWSet,
    Transaction,
    TxResult,
    TxValidationCode,
)

__all__ = [
    "Block",
    "BlockHeader",
    "make_genesis_block",
    "BlockchainClient",
    "PendingTx",
    "FabricConfig",
    "Contract",
    "ContractError",
    "InvocationContext",
    "StateView",
    "execute_transaction",
    "nonce_key",
    "KeyPair",
    "PrivateKey",
    "PublicKey",
    "canonical_digest",
    "generate_keypair",
    "merkle_root",
    "sha256_hex",
    "verify_batch",
    "Certificate",
    "CertificateAuthority",
    "Identity",
    "MembershipProvider",
    "ValidationExecutor",
    "execution_stats",
    "reset_execution_stats",
    "clear_execution_cache",
    "Ledger",
    "LedgerError",
    "TxExecution",
    "DeliverBlock",
    "QueryTxStatus",
    "SubmitTx",
    "SyncHashMsg",
    "TxStatusReply",
    "VoteMsg",
    "BlockchainNetwork",
    "OrderingService",
    "Peer",
    "MAJORITY",
    "shard_index_for_key",
    "session_shard_key",
    "ShardAssetContract",
    "SwapCoordinator",
    "SwapState",
    "CrossShardSwap",
    "check_conservation_summaries",
    "ConsensusPolicy",
    "PolicyError",
    "parse_policy",
    "Version",
    "VersionedValue",
    "WorldState",
    "Proposal",
    "RWSet",
    "Transaction",
    "TxResult",
    "TxValidationCode",
]
