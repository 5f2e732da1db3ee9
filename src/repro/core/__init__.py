"""The paper's contribution: the QoS negotiation procedure.

Profiles (§3), offers and their mapping (§4), classification (§5),
QoS mapping (§6), cost computation (§7), the six-step negotiation and
the adaptation procedure (§4), and the profile manager (§3/§8).
"""

from .adaptation import AdaptationManager, AdaptationOutcome, AdaptationStrategy
from .classification import (
    MAX_VECTOR_OFFERS,
    ClassificationPolicy,
    ClassifiedOffer,
    apply_offer_bonus,
    classify_offer,
    classify_offers,
    classify_space,
    compute_sns,
)
from .preferences import (
    SecurityLevel,
    ServerAttributes,
    ServerDirectory,
    UserPreferences,
)
from .commitment import (
    Commitment,
    CommitmentState,
    ReservationBundle,
    ResourceCommitter,
)
from .cost import (
    CostBreakdown,
    CostModel,
    CostTable,
    MonomediaCost,
    ThroughputClass,
    default_cost_model,
    default_network_table,
    default_server_table,
)
from .enumeration import OfferSpace, VariantChoice, build_offer_space
from .importance import (
    ImportanceProfile,
    ScaleImportance,
    default_importance,
    paper_example_importance,
)
from .mapping import QoSMapper, flow_spec_for_variant
from .negotiation import (
    NegotiationPlan,
    NegotiationResult,
    QoSManager,
    negotiate_full_sort,
    two_pass_order,
)
from .offers import SystemOffer, derive_user_offer
from .profile_io import (
    dump_profiles,
    load_profiles,
    profile_from_record,
    profile_to_record,
    read_profiles,
    save_profiles,
)
from .profile_manager import ProfileManager, make_profile, standard_profiles
from .profiles import MMProfile, TimeProfile, UserProfile
from .status import NegotiationStatus, StaticNegotiationStatus

__all__ = [name for name in dir() if not name.startswith("_")]
