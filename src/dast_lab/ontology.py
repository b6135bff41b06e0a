"""The 14-category chest pathology ontology shared across the whole repo.

One fixed category order is used everywhere: disease tokens, classifier
heads, retrieval logits, dataset labels, and the rule-based labeler. The
finding phrases below are the closed synthetic vocabulary: report templates
emit them and the labeler recognizes exactly them.
"""

CATEGORIES = (
    "No Finding",
    "Enlarged Cardiomediastinum",
    "Cardiomegaly",
    "Lung Opacity",
    "Lung Lesion",
    "Edema",
    "Consolidation",
    "Pneumonia",
    "Atelectasis",
    "Pneumothorax",
    "Pleural Effusion",
    "Pleural Other",
    "Fracture",
    "Support Devices",
)

NUM_CATEGORIES = len(CATEGORIES)

# canonical finding phrase per category, lowercase, whitespace-tokenizable
FINDING_PHRASES = (
    "normal study appearance",
    "enlarged cardiomediastinum",
    "cardiomegaly",
    "lung opacity",
    "lung lesion",
    "pulmonary edema",
    "consolidation",
    "pneumonia",
    "atelectasis",
    "pneumothorax",
    "pleural effusion",
    "pleural thickening",
    "rib fracture",
    "support device",
)

# a finding mention preceded by one of these within 5 tokens reads as negated
NEGATION_CUES = (
    ("no",),
    ("without",),
    ("negative", "for"),
    ("free", "of"),
)
